//! The checker's commitment fold against the byte spec: every value must
//! hash exactly as byte-at-a-time FNV-1a over its 8 little-endian bytes,
//! whatever the length of its run of zero high bytes. The checker's fold
//! is an implementation of its own: the crate shares no code with the
//! simulator's transcript recorder, which this suite also pins.

use treelocal_check::{commit_round, commitment_fold, COMMITMENT_OFFSET, COMMITMENT_PRIME};

/// Byte-at-a-time FNV-1a over the 8 little-endian bytes of `x`.
fn fold_bytes(mut h: u64, x: u64) -> u64 {
    for byte in x.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(COMMITMENT_PRIME);
    }
    h
}

/// SplitMix64: a seeded value stream independent of the crate under test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn edge_values_fold_as_the_byte_spec() {
    let edges = [0, 1, 0xff, 0x100, (1u64 << 56) - 1, 1 << 56, u64::MAX];
    for h in [COMMITMENT_OFFSET, 0, u64::MAX, 0x0123_4567_89ab_cdef] {
        for x in edges {
            assert_eq!(commitment_fold(h, x), fold_bytes(h, x), "h {h:#x}, x {x:#x}");
        }
    }
}

#[test]
fn seeded_values_of_every_zero_run_length_fold_as_the_byte_spec() {
    let mut state = 0x0c0f_fee0;
    let mut h = COMMITMENT_OFFSET;
    for zero_bytes in 0..=8u32 {
        for _ in 0..1200 {
            let x = match zero_bytes {
                8 => 0,
                z => (splitmix(&mut state) >> (8 * z)) | (1 << (8 * (7 - z))),
            };
            assert_eq!(x.leading_zeros() / 8, zero_bytes);
            let (fast, slow) = (commitment_fold(h, x), fold_bytes(h, x));
            assert_eq!(fast, slow, "x {x:#x}");
            h = fast;
        }
    }
}

#[test]
fn a_round_commitment_is_the_byte_spec_over_round_size_and_frontier() {
    let frontier = [0, 7, 255, 256, 65_535, 65_536, 499_999];
    let mut h = fold_bytes(fold_bytes(COMMITMENT_OFFSET, 3), 7);
    for v in frontier {
        h = fold_bytes(h, v);
    }
    assert_eq!(commit_round(COMMITMENT_OFFSET, 3, &frontier), h);
}

/// The dependency tables of both crates' manifests, `[dependencies]`
/// only (dev-dependencies may cross for tests).
fn runtime_deps(manifest: &str) -> &str {
    let start = manifest.find("[dependencies]").expect("a dependencies table");
    let rest = &manifest[start + "[dependencies]".len()..];
    &rest[..rest.find("\n[").unwrap_or(rest.len())]
}

#[test]
fn the_checker_and_the_recorder_share_no_code() {
    let check = include_str!("../Cargo.toml");
    let sim = include_str!("../../sim/Cargo.toml");
    assert!(!runtime_deps(check).contains("treelocal-sim"), "checker depends on the simulator");
    assert!(!runtime_deps(sim).contains("treelocal-check"), "simulator depends on the checker");
    for (name, src) in [
        ("commit.rs", include_str!("../src/commit.rs")),
        ("cert.rs", include_str!("../src/cert.rs")),
    ] {
        assert!(!src.contains("treelocal_sim"), "{name} names the simulator");
    }
    assert!(!include_str!("../../sim/src/transcript.rs").contains("treelocal_check"));
}
