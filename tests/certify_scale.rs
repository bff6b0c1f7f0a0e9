//! Scale pins for `mla-lint`'s static certification on the live
//! service's partitioned load.
//!
//! The may-conflict graph is counted from per-class slot sums rather
//! than materialised edge by edge, so its MLA020 edge count is the one
//! figure that shows the count still equals the number of distinct
//! `(t, a_in) -> (u, b_in)` edges. Both figures below are the counts of
//! the edge-by-edge construction this one replaced, at the shapes the
//! service benchmark certifies (32 sessions × 200 transactions) and
//! one it had to leave out for certification cost (64 × 400).

use multilevel_atomicity::lint::{certify_workload, Code};
use multilevel_atomicity::serve::partitioned_load;

fn certifies_with(sessions: usize, txns_per_session: usize, counts: &str) {
    let load = partitioned_load(sessions, txns_per_session);
    let c = certify_workload(&load.workload);
    let lattice = c.cert.expect("the partitioned load certifies");
    assert!(lattice.fully_certified());
    assert_eq!(
        lattice.universe_count(),
        sessions,
        "one universe per session"
    );
    let issued: Vec<_> = c
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::CertIssued)
        .collect();
    assert_eq!(issued.len(), 1);
    assert!(
        issued[0].message.contains(counts),
        "MLA020 was: {}",
        issued[0].message
    );
}

#[test]
fn partitioned_32x200_certifies_with_the_pinned_edge_count() {
    certifies_with(32, 200, "(1273600 may-conflict edges, 0 backward-capable, ");
}

#[test]
fn partitioned_64x400_certifies_with_the_pinned_edge_count() {
    certifies_with(
        64,
        400,
        "(10214400 may-conflict edges, 0 backward-capable, ",
    );
}
