//! The benchmark's own guarantees, on the configuration it reports: its
//! virtual-time results are a function of the seed alone, a different seed
//! changes the inputs without making anything fail, and the open loop's
//! tail latency does not grow with run length.

use dlt_e2ebench::tenants::{TenantsParams, TenantsRing};
use dlt_e2ebench::{setup, WORKLOADS};

#[test]
fn the_same_seed_gives_identical_virtual_results_and_counts() {
    for name in WORKLOADS {
        let mut a = setup(name, 11).expect("set-up");
        let mut b = setup(name, 11).expect("set-up");
        let (pa, pb) = (a.pass(0), b.pass(0));
        assert_eq!(pa.mismatches, 0, "{name}: {:?}", pa.first_mismatch);
        assert_eq!(pa.virt, pb.virt, "{name}: virtual results differ for one seed");
        assert_eq!(pa.counts, pb.counts, "{name}: counts differ for one seed");
        assert_eq!(pa.attempted, pb.attempted, "{name}");
        // The next pass is a function of the seed too.
        let (qa, qb) = (a.pass(1), b.pass(1));
        assert_eq!(qa.mismatches, 0, "{name}: {:?}", qa.first_mismatch);
        assert_eq!(qa.virt, qb.virt, "{name}: second passes differ for one seed");
        // Where every pass starts from a fresh service, it repeats the first.
        if name != "sqlite_direct" {
            assert_eq!(qa.virt, pa.virt, "{name}: second pass differs from the first");
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_and_nothing_fails() {
    for name in WORKLOADS {
        let one = setup(name, 1).expect("set-up").pass(0);
        let two = setup(name, 2).expect("set-up").pass(0);
        for (seed, pass) in [(1, &one), (2, &two)] {
            assert!(pass.attempted > 0, "{name}");
            assert_eq!(pass.failed, 0, "{name}, seed {seed}: fail_ratio must stay 0");
            assert_eq!(pass.mismatches, 0, "{name}, seed {seed}: {:?}", pass.first_mismatch);
        }
        assert_ne!(one.virt, two.virt, "{name}: the seed must change the schedule");
    }
}

#[test]
fn tenants_ring_nominal_p99_does_not_grow_when_the_run_doubles() {
    let long = TenantsParams::standard();
    let nominal = long.nominal;
    let short =
        TenantsParams { requests_per_session: long.requests_per_session / 2, ..long.clone() };
    let short = TenantsRing::setup(5, short).expect("set-up").run_rung(nominal).expect("short run");
    let long = TenantsRing::setup(5, long).expect("set-up").run_rung(nominal).expect("long run");
    for rung in [&short, &long] {
        assert_eq!(rung.pass.failed, 0);
        assert_eq!(rung.pass.mismatches, 0, "{:?}", rung.pass.first_mismatch);
    }
    let (p99_short, p99_long) = (short.pass.virt.p99_us, long.pass.virt.p99_us);
    assert!(
        p99_long <= 1.25 * p99_short,
        "nominal-rung p99 grew from {p99_short} us to {p99_long} us when the run doubled"
    );
    assert!(long.backlog.1 <= long.backlog.0 + 64, "backlog grew: {:?}", long.backlog);
}
