//! Property-based tests of the core invariants (proptest).

use std::collections::HashMap;

use dlt_template::{Constraint, EvalEnv, SymExpr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Symbolic expressions survive a JSON round trip.
    #[test]
    fn expr_serde_round_trip(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64, shift in 0u32..24) {
        let expr = SymExpr::Param("p".into()).shl(shift).or_const(a).plus(b);
        let json = serde_json::to_string(&expr).unwrap();
        let back: SymExpr = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, expr);
    }

    /// Evaluation of the Table-4 style expressions matches direct arithmetic.
    #[test]
    fn expr_eval_matches_reference(p in 0u64..1u64<<32, mask in 0u64..u32::MAX as u64, add in 0u64..1u64<<20) {
        let env = EvalEnv::default().param("x", p);
        let masked = SymExpr::Param("x".into()).masked(mask);
        prop_assert_eq!(masked.eval(&env), Some(p & mask));
        let affine = SymExpr::Param("x".into()).shl(9).plus(add);
        prop_assert_eq!(affine.eval(&env), Some((p << 9).wrapping_add(add)));
    }

    /// Constraint unions are upper bounds: anything accepted by either input
    /// constraint is accepted by the union (coverage only ever grows during a
    /// record campaign).
    #[test]
    fn constraint_union_is_an_upper_bound(a in 0u64..1000, b in 0u64..1000, probe in 0u64..1000) {
        let ca = Constraint::eq_const(a);
        let cb = Constraint::InRange { min: b, max: b + 100 };
        let u = ca.union(&cb);
        let env = EvalEnv::default();
        if ca.check(probe, &env) || cb.check(probe, &env) {
            prop_assert!(u.check(probe, &env), "union rejected a value a member accepted");
        }
    }

    /// The bump DMA allocator never hands out overlapping regions and always
    /// respects its bounds.
    #[test]
    fn dma_allocator_never_overlaps(sizes in proptest::collection::vec(1usize..5000, 1..40)) {
        let region = dlt_hw::DmaRegion::new(0x10_0000, 1 << 20);
        let mut alloc = dlt_hw::mem::BumpDmaAllocator::new(region);
        let mut got: Vec<dlt_hw::DmaRegion> = Vec::new();
        for s in sizes {
            if let Ok(r) = alloc.alloc(s) {
                prop_assert!(r.base >= region.base && r.end() <= region.end());
                for prev in &got {
                    let overlap = r.base < prev.end() && prev.base < r.end();
                    prop_assert!(!overlap, "allocations overlap");
                }
                got.push(r);
            }
        }
    }

    /// Physical memory round-trips arbitrary byte strings at arbitrary
    /// in-bounds offsets.
    #[test]
    fn phys_mem_round_trip(offset in 0u64..3000, data in proptest::collection::vec(any::<u8>(), 1..512)) {
        let mut mem = dlt_hw::PhysMem::new(0, 4096);
        if (offset as usize) + data.len() <= 4096 {
            mem.write_bytes(offset, &data).unwrap();
            let mut out = vec![0u8; data.len()];
            mem.read_bytes(offset, &mut out).unwrap();
            prop_assert_eq!(out, data);
        }
    }

    /// The SD card model stores and returns arbitrary block runs faithfully
    /// (the block-device contract every layer above relies on).
    #[test]
    fn sd_card_block_store_is_faithful(
        lba in 0u64..1000,
        blocks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 512..=512), 1..4)
    ) {
        let mut card = dlt_dev_mmc::SdCard::formatted(2048);
        card.fast_init();
        let flat: Vec<u8> = blocks.concat();
        card.execute(dlt_dev_mmc::card::cmd::WRITE_MULTIPLE, lba as u32);
        prop_assert!(card.write_blocks(lba, &flat));
        card.execute(dlt_dev_mmc::card::cmd::READ_MULTIPLE, lba as u32);
        let back: Vec<u8> =
            card.read_blocks(lba, blocks.len() as u32).unwrap().flatten().copied().collect();
        prop_assert_eq!(back, flat);
    }

    /// Driverlet signatures detect arbitrary single-byte tampering of the
    /// template contents.
    #[test]
    fn signature_detects_tampering(tweak in 0u64..1u64<<32) {
        let mut d = dlt_template::Driverlet::new("sdhost", "replay_mmc", vec![]);
        d.sign(b"key");
        prop_assert!(d.verify(b"key").is_ok());
        d.entry = format!("replay_mmc_{tweak}");
        prop_assert!(d.verify(b"key").is_err());
    }
}

/// Template selection is a function: for any in-coverage argument set, at
/// most one recorded MMC template matches it (the §5 guarantee that no two
/// templates can be selected simultaneously).
#[test]
fn template_selection_is_unambiguous() {
    let driverlet =
        dlt_recorder::campaign::record_mmc_driverlet_subset(&[1, 8]).expect("record campaign");
    let mut cases = 0;
    for rw in [0x1u64, 0x10] {
        for blkcnt in [1u64, 8] {
            for blkid in [0u64, 999, 1_000_000] {
                let args: HashMap<String, u64> = [
                    ("rw".to_string(), rw),
                    ("blkcnt".to_string(), blkcnt),
                    ("blkid".to_string(), blkid),
                    ("flag".to_string(), 0),
                ]
                .into_iter()
                .collect();
                let matches: Vec<_> =
                    driverlet.templates.iter().filter(|t| t.matches(&args)).collect();
                assert_eq!(matches.len(), 1, "args {args:?} matched {} templates", matches.len());
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 12);
}
