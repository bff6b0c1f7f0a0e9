//! The benchmark's workloads.
//!
//! Every workload drives both hosts of the schedulers: a live
//! `mla-serve` drain (threads over MVCC storage, audited afterwards)
//! and the single-threaded `mla-sim` simulator under both `mla-detect`
//! and `mla-prevent`. A workload fixes the load each host receives.
//! Why each was chosen, with the measurements behind it, is in
//! `NOTES.md`.

use std::time::Duration;

use mla_model::TxnId;
use mla_serve::{contended_load, partitioned_load, SchedKind, ServeConfig, ServeLoad};
use mla_workload::synthetic::{generate, SyntheticConfig};
use mla_workload::Workload;

/// The benchmark's workloads, by name.
pub const NAMES: [&str; 3] = ["serve-partitioned", "serve-contended", "sim-synthetic"];

/// Shape of the seeded synthetic load.
pub struct SyntheticShape {
    /// Transactions per generated instance.
    pub txns: usize,
    /// Entity pool size.
    pub entities: usize,
}

/// The `sim-synthetic` shape: k = 4, fanout 4 x 2, breakpoint densities
/// 0.3 / 0.6, 3 to 6 steps per transaction on uniformly drawn entities,
/// one arrival every 3 ticks. The entity pool is large enough that
/// rollbacks are rare: `mla-detect` can livelock in the simulator once
/// transactions conflict (see `NOTES.md`).
pub const SYNTHETIC: SyntheticShape = SyntheticShape {
    txns: 400,
    entities: 50_000,
};

/// Sessions the synthetic load is dealt into when it is drained live.
const SYNTHETIC_SESSIONS: usize = 16;

/// Generates the synthetic load for `seed`.
pub fn synthetic(shape: &SyntheticShape, seed: u64) -> Workload {
    generate(SyntheticConfig {
        txns: shape.txns,
        k: 4,
        fanout: vec![4, 2],
        len_min: 3,
        len_max: 6,
        entities: shape.entities,
        zipf_theta: 0.0,
        densities: vec![0.3, 0.6],
        arrival_spacing: 3,
        seed,
    })
    .workload
}

/// Deals `workload`'s transactions round-robin into `sessions` client
/// sessions.
fn into_sessions(workload: Workload, sessions: usize) -> ServeLoad {
    let mut session_txns = vec![Vec::new(); sessions];
    for t in 0..workload.txn_count() {
        session_txns[t % sessions].push(TxnId(t as u32));
    }
    ServeLoad {
        workload,
        session_txns,
        initial_total: 0,
    }
}

/// One workload: what each host runs, and how the run's time is split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    /// Certified write-only sessions on private entity ranges.
    ServePartitioned,
    /// Transfers over one shared account ring with atomic audits.
    ServeContended,
    /// Seeded synthetic nests with density-controlled breakpoints.
    SimSynthetic,
}

impl Spec {
    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Spec> {
        match name {
            "serve-partitioned" => Some(Spec::ServePartitioned),
            "serve-contended" => Some(Spec::ServeContended),
            "sim-synthetic" => Some(Spec::SimSynthetic),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Spec::ServePartitioned => NAMES[0],
            Spec::ServeContended => NAMES[1],
            Spec::SimSynthetic => NAMES[2],
        }
    }

    /// The load of the `i`-th live drain. The serve loads are seed-free
    /// by construction; the synthetic one is generated from `seed`.
    pub fn live_load(self, seed: u64) -> ServeLoad {
        match self {
            Spec::ServePartitioned => partitioned_load(32, 200),
            Spec::ServeContended => contended_load(32, 100, 64, 8),
            Spec::SimSynthetic => into_sessions(synthetic(&SYNTHETIC, seed), SYNTHETIC_SESSIONS),
        }
    }

    /// The service configuration of every measured drain: one worker
    /// thread, `mla-prevent`. (With two workers, per-drain latency
    /// tracks how much of the two cores the host lends the run; see
    /// `NOTES.md`.)
    pub fn live_config(self) -> ServeConfig {
        let base = ServeConfig {
            sched: SchedKind::Prevent,
            workers: 1,
            snapshot_readers: 0,
            deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        };
        match self {
            Spec::ServePartitioned => ServeConfig {
                certified: true,
                ..base
            },
            Spec::ServeContended => ServeConfig {
                snapshot_readers: 1,
                ..base
            },
            Spec::SimSynthetic => base,
        }
    }

    /// Whether every drain must conserve the sum of the initial values
    /// (the contended account ring).
    pub fn conserves(self) -> bool {
        self == Spec::ServeContended
    }

    /// The load of one simulator instance: the serve shapes at simulator
    /// scale (the simulator seed varies their timing), or a fresh
    /// synthetic instance.
    pub fn sim_load(self, seed: u64) -> Workload {
        match self {
            Spec::ServePartitioned => partitioned_load(8, 50).workload,
            Spec::ServeContended => contended_load(8, 16, 16, 8).workload,
            Spec::SimSynthetic => synthetic(&SYNTHETIC, seed),
        }
    }

    /// Share of the measuring time given to live drains; the rest goes
    /// to simulator instances.
    pub fn live_share(self) -> f64 {
        match self {
            Spec::ServePartitioned => 0.75,
            Spec::ServeContended => 0.4,
            Spec::SimSynthetic => 0.4,
        }
    }
}

/// The `i`-th derived seed of a run (splitmix64 of `seed` and `i`), so
/// instances and drains of one run differ but repeat across runs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for name in NAMES {
            assert_eq!(Spec::from_name(name).map(Spec::name), Some(name));
        }
        assert_eq!(Spec::from_name("nope"), None);
    }

    #[test]
    fn synthetic_is_seeded() {
        let a = synthetic(&SYNTHETIC, 3);
        let b = synthetic(&SYNTHETIC, 3);
        let c = synthetic(&SYNTHETIC, 4);
        let steps = |w: &Workload| {
            w.profiles()
                .iter()
                .map(|p| p.footprint().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(steps(&a), steps(&b));
        assert_ne!(steps(&a), steps(&c));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
