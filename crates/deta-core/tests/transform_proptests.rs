//! Property tests for the transform pipeline (the wire codec's laws are
//! in `tests/wire_laws.rs` at the workspace root).

use deta_core::mapper::ModelMapper;
use deta_core::shuffle::RoundPermutation;
use deta_crypto::DetRng;
use deta_proptest::{cases, Gen};

#[test]
fn permutation_roundtrip() {
    cases("permutation_roundtrip", 256, |g| {
        let key = g.array::<32>();
        let tid = g.array::<16>();
        let frag = g.u32();
        let data = g.vec_of(0, 200, Gen::f32_any);
        let p = RoundPermutation::derive(&key, &tid, frag, data.len());
        let shuffled = p.apply(&data);
        // NaNs are not PartialEq-reflexive; compare bit patterns.
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.invert(&shuffled)), bits(&data));
    });
}

#[test]
fn mapper_roundtrip_arbitrary_proportions() {
    cases("mapper_roundtrip_arbitrary_proportions", 128, |g| {
        let n = g.usize_in(1, 300);
        let raw_props = g.vec_of(1, 5, |g| g.f32_in(0.05, 1.0));
        let k = raw_props.len();
        let mapper = ModelMapper::generate(n, k, Some(&raw_props), &mut DetRng::from_u64(g.u64()));
        let update: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert_eq!(mapper.merge(&mapper.partition(&update)), update);
    });
}
