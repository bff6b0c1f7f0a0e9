//! Static per-transaction profiles: what the analyzer can know about a
//! transaction's entity accesses and guaranteed breakpoints without
//! running it.
//!
//! Two precision tiers, both *sound under-approximations of breakpoints*
//! and *over-approximations of accesses*:
//!
//! * [`TxnProfile::Exact`] — the program is straight-line
//!   ([`Program::step_entities`]): the access sequence is known per
//!   position, and between consecutive steps we record the breakpoint
//!   level guaranteed there in every run
//!   ([`RuntimeBreakpoints::guaranteed_level_after`]).
//! * [`TxnProfile::Blob`] — only a may-footprint is known
//!   ([`Program::may_footprint`]): a set of entities the transaction
//!   touches *at most once each*, in unknown order, with at best a
//!   uniform breakpoint-density guarantee
//!   ([`RuntimeBreakpoints::uniform_guarantee`]).
//!
//! Real runs can only have *more* breakpoints than the profile records,
//! so segments at every level are finer at runtime than in the model —
//! the coherent closure of any real run is contained in the modeled one.
//! That monotonicity is what makes the certification pass sound.

use mla_model::{EntityId, Program};
use mla_txn::RuntimeBreakpoints;

/// What is statically known about one transaction's runs.
#[derive(Clone, Debug)]
pub enum TxnProfile {
    /// Straight-line program: exact access sequence and the breakpoint
    /// levels guaranteed between consecutive steps.
    Exact {
        /// `steps[i]` is the entity accessed by step `i` of every run.
        steps: Vec<EntityId>,
        /// `boundaries[i]` is the minimum breakpoint level guaranteed
        /// between steps `i` and `i+1` in every run (`None` = nothing
        /// guaranteed there). Length `steps.len() - 1` (empty for
        /// programs of at most one step).
        boundaries: Vec<Option<usize>>,
    },
    /// Branching program with a known may-footprint.
    Blob {
        /// Entities any run may touch — each at most once.
        entities: Vec<EntityId>,
        /// A level `l` such that every non-final prefix of every run is
        /// followed by a breakpoint of level `<= l`, if one is
        /// guaranteed.
        uniform: Option<usize>,
    },
}

impl TxnProfile {
    /// Builds the most precise profile the program and breakpoint
    /// structure expose, or `None` when even the footprint is unknown
    /// (which makes static certification impossible for the workload).
    pub fn build(program: &dyn Program, bp: &dyn RuntimeBreakpoints) -> Option<TxnProfile> {
        if let Some(steps) = program.step_entities() {
            let boundaries = (1..steps.len())
                .map(|pos| bp.guaranteed_level_after(pos))
                .collect();
            return Some(TxnProfile::Exact { steps, boundaries });
        }
        program.may_footprint().map(|entities| TxnProfile::Blob {
            entities,
            uniform: bp.uniform_guarantee(),
        })
    }

    /// The transaction's may-footprint, sorted and deduplicated.
    pub fn footprint(&self) -> Vec<EntityId> {
        let mut fp = self.slot_entities().to_vec();
        fp.sort_unstable();
        fp.dedup();
        fp
    }

    /// The entity behind each access slot (exact: one slot per step;
    /// blob: one per footprint entity).
    pub fn slot_entities(&self) -> &[EntityId] {
        match self {
            TxnProfile::Exact { steps, .. } => steps,
            TxnProfile::Blob { entities, .. } => entities,
        }
    }

    /// Number of access slots.
    pub fn slot_count(&self) -> usize {
        self.slot_entities().len()
    }

    /// The slots (step positions or footprint indices) accessing
    /// `entity`.
    pub fn slots_on(&self, entity: EntityId) -> Vec<usize> {
        let slots = self.slot_entities().iter().enumerate();
        slots
            .filter(|(_, &e)| e == entity)
            .map(|(i, _)| i)
            .collect()
    }

    /// The last slot of the level-`level` segment containing `slot`: the
    /// walk forward stops at the first inter-step boundary *guaranteed*
    /// to carry a breakpoint of level `<= level` (a breakpoint of
    /// minimum level `g` bounds the `B_t(i)` segments for every
    /// `i >= g`). Blobs are a single segment.
    pub fn seg_end(&self, slot: usize, level: usize) -> usize {
        match self {
            TxnProfile::Exact { steps, boundaries } => {
                let mut j = slot;
                while j + 1 < steps.len() && boundaries[j].is_none_or(|g| g > level) {
                    j += 1;
                }
                j
            }
            TxnProfile::Blob { entities, .. } => entities.len().saturating_sub(1),
        }
    }

    /// Whether a closure path arriving at slot `a_in` can exit through
    /// the access at slot `a_out` when the conflicting partner is
    /// related at `level`. Forward travel (`a_out >= a_in`) is plain
    /// program order; backward travel exists only when condition (b)
    /// lifts span the gap — i.e. `a_in` still lies inside `a_out`'s
    /// level-`level` segment.
    pub fn can_traverse(&self, a_in: usize, a_out: usize, level: usize) -> bool {
        match self {
            TxnProfile::Exact { .. } => a_out >= a_in || self.seg_end(a_out, level) >= a_in,
            // A blob's internal order is unknown: some run may place
            // any pair of distinct accesses in either order.
            TxnProfile::Blob { .. } => true,
        }
    }

    /// Whether the `a_in -> a_out` traversal can be *backward in time*
    /// (exit access performed before the arrival access): that is the
    /// only way a closure cycle can close, so these traversals are what
    /// certification must rule out of cycles.
    pub fn backward_traverse(&self, a_in: usize, a_out: usize, level: usize) -> bool {
        match self {
            TxnProfile::Exact { .. } => a_out < a_in && self.seg_end(a_out, level) >= a_in,
            // Distinct blob accesses may occur in either order; a
            // uniform breakpoint guarantee at `<= level` makes every
            // level-`level` segment a single step, leaving no lift to
            // carry a path backward.
            TxnProfile::Blob { uniform, .. } => a_in != a_out && uniform.is_none_or(|u| u > level),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::program::{ScriptOp::*, ScriptProgram};
    use mla_txn::{NoBreakpoints, PhaseTable};

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    #[test]
    fn script_programs_profile_exactly() {
        let p = ScriptProgram::new(vec![Add(e(5), 1), Add(e(7), 1), Add(e(5), -1)]);
        let bp = PhaseTable::new(3, [(1, 2)]);
        let prof = TxnProfile::build(&p, &bp).expect("script is straight-line");
        match &prof {
            TxnProfile::Exact { steps, boundaries } => {
                assert_eq!(steps, &[e(5), e(7), e(5)]);
                assert_eq!(boundaries, &[Some(2), None]);
            }
            _ => panic!("expected exact profile"),
        }
        assert_eq!(prof.footprint(), vec![e(5), e(7)]);
        assert_eq!(prof.slots_on(e(5)), vec![0, 2]);
        // The level-2 segment after slot 0 ends at the guaranteed
        // boundary; at the (nonexistent) level 1 it would run on, but
        // levels below 2 never carry breakpoints anyway.
        assert_eq!(prof.seg_end(0, 2), 0);
        assert_eq!(prof.seg_end(0, 1), 2);
        assert_eq!(prof.seg_end(1, 2), 2);
        // Backward travel from slot 2 back to slot 0 needs slot 0's
        // segment to still cover slot 2: true at level 1, cut at level 2.
        assert!(prof.backward_traverse(2, 0, 1));
        assert!(!prof.backward_traverse(2, 0, 2));
        assert!(prof.can_traverse(0, 2, 2), "forward is always fine");
    }

    #[test]
    fn atomic_scripts_have_whole_txn_segments() {
        let p = ScriptProgram::new(vec![Add(e(0), 1), Add(e(1), 1)]);
        let prof = TxnProfile::build(&p, &NoBreakpoints { k: 4 }).unwrap();
        assert_eq!(prof.seg_end(0, 3), 1, "no guaranteed boundary anywhere");
        assert!(prof.backward_traverse(1, 0, 3));
    }

    #[test]
    fn blob_backwardness_follows_uniform_guarantee() {
        let blob = TxnProfile::Blob {
            entities: vec![e(1), e(2), e(3)],
            uniform: Some(3),
        };
        assert!(blob.can_traverse(2, 0, 1));
        assert!(!blob.backward_traverse(0, 0, 1), "same access, no pair");
        assert!(
            blob.backward_traverse(2, 0, 1),
            "level-1 segments can span steps"
        );
        assert!(
            !blob.backward_traverse(2, 0, 3),
            "uniform level-3 breakpoints make level-3 segments singletons"
        );
        let loose = TxnProfile::Blob {
            entities: vec![e(1), e(2)],
            uniform: None,
        };
        assert!(loose.backward_traverse(1, 0, 3));
    }
}
