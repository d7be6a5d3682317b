//! Client-side cost (Figure 3's kernel): sealing AHS submissions for
//! various chain lengths off prebuilt [`SealKeys`] tables, building
//! those tables, plus the basic-onion ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::client::{seal_ahs, seal_basic, SealKeys};
use xrd_mixnet::{generate_chain_keys, MailboxMessage, PAYLOAD_LEN};

fn msg() -> MailboxMessage {
    MailboxMessage {
        mailbox: [1u8; 32],
        sealed: vec![0u8; PAYLOAD_LEN + 16],
    }
}

fn bench_seal_ahs(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal_ahs");
    for &k in &[4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let (_, keys) = generate_chain_keys(&mut rng, k, 0);
        let keys = SealKeys::new(&keys);
        let m = msg();
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            b.iter(|| seal_ahs(&mut rng, &keys, 0, &m))
        });
    }
    group.finish();
}

/// Building one bundle's sealing tables (`k` mixing keys plus the
/// aggregate inner key): paid once per bundle per round and shared by
/// every seal against it.
fn bench_seal_keys_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal_keys_new");
    for &k in &[4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let (_, keys) = generate_chain_keys(&mut rng, k, 0);
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            b.iter(|| SealKeys::new(&keys))
        });
    }
    group.finish();
}

/// Ablation: the AHS shared-x onion vs the Algorithm-2 fresh-x-per-layer
/// onion at the paper's chain length.
fn bench_seal_ahs_vs_basic(c: &mut Criterion) {
    let k = 32;
    let mut rng = StdRng::seed_from_u64(99);
    let (_, keys) = generate_chain_keys(&mut rng, k, 0);
    let keys = SealKeys::new(&keys);
    let msks: Vec<Scalar> = (0..k).map(|_| Scalar::random(&mut rng)).collect();
    let mpks: Vec<GroupElement> = msks.iter().map(GroupElement::base_mul).collect();
    let m = msg();

    let mut group = c.benchmark_group("seal_onion_k32");
    group.bench_function("ahs_shared_x", |b| {
        b.iter(|| seal_ahs(&mut rng, &keys, 0, &m))
    });
    group.bench_function("basic_fresh_x_per_layer", |b| {
        b.iter(|| seal_basic(&mut rng, &mpks, 0, &m))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_seal_ahs,
    bench_seal_keys_build,
    bench_seal_ahs_vs_basic
);
criterion_main!(benches);
