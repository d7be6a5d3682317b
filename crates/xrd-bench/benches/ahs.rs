//! Benchmarks of the aggregate hybrid shuffle — the paper's core
//! technique — including the headline ablation: AHS per-message cost vs.
//! a traditional verifiable shuffle (§6: "we instead propose ... using
//! only efficient cryptographic techniques").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_baselines::elgamal::{encrypt, mix_hop};
use xrd_baselines::vshuffle::{prove_shuffle_workload, verify_shuffle_workload};
use xrd_crypto::keys::KeyPair;
use xrd_crypto::ristretto::GroupElement;
use xrd_mixnet::client::{seal_ahs, SealKeys};
use xrd_mixnet::{
    generate_chain_keys, verify_hop, MailboxMessage, MixEntry, MixServer, PAYLOAD_LEN,
};

fn batch_submissions(
    rng: &mut StdRng,
    keys: &xrd_mixnet::ChainPublicKeys,
    n: usize,
) -> Vec<MixEntry> {
    let keys = SealKeys::new(keys);
    (0..n)
        .map(|i| {
            let msg = MailboxMessage {
                mailbox: [i as u8; 32],
                sealed: vec![0u8; PAYLOAD_LEN + 16],
            };
            seal_ahs(rng, &keys, 0, &msg).to_entry()
        })
        .collect()
}

fn bench_ahs_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("ahs_hop");
    for &batch in &[16usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(1);
        let (secrets, public) = generate_chain_keys(&mut rng, 1, 0);
        let entries = batch_submissions(&mut rng, &public, batch);
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("process", batch), &batch, |b, _| {
            b.iter_batched(
                || {
                    (
                        MixServer::new(secrets[0].clone(), public.clone()),
                        entries.clone(),
                        StdRng::seed_from_u64(9),
                    )
                },
                |(mut server, input, mut rng2)| server.process_round(&mut rng2, 0, input).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_ahs_verify(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let batch = 256;
    let (secrets, public) = generate_chain_keys(&mut rng, 1, 0);
    let entries = batch_submissions(&mut rng, &public, batch);
    let mut server = MixServer::new(secrets[0].clone(), public.clone());
    let result = server.process_round(&mut rng, 0, entries.clone()).unwrap();
    let mut group = c.benchmark_group("ahs_verify");
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_function("aggregate_256", |b| {
        b.iter(|| {
            assert!(verify_hop(
                &public,
                0,
                0,
                &entries,
                &result.outputs,
                &result.proof
            ))
        })
    });
    group.finish();
}

/// The headline ablation: per-message work of AHS (~2 exps) vs a
/// traditional verifiable shuffle (~18 exps prove+verify).
fn bench_ahs_vs_vshuffle(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let batch = 64usize;
    let mut group = c.benchmark_group("ahs_vs_vshuffle");
    group.throughput(Throughput::Elements(batch as u64));

    let (secrets, public) = generate_chain_keys(&mut rng, 1, 0);
    let entries = batch_submissions(&mut rng, &public, batch);
    group.bench_function("ahs_mix_and_prove_64", |b| {
        b.iter_batched(
            || {
                (
                    MixServer::new(secrets[0].clone(), public.clone()),
                    entries.clone(),
                    StdRng::seed_from_u64(11),
                )
            },
            |(mut server, input, mut rng2)| server.process_round(&mut rng2, 0, input).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });

    let kp = KeyPair::generate(&mut rng);
    let cts: Vec<_> = (0..batch)
        .map(|_| {
            let m = GroupElement::random(&mut rng);
            encrypt(&mut rng, &kp.pk, &m)
        })
        .collect();
    group.bench_function("vshuffle_mix_and_prove_64", |b| {
        b.iter(|| {
            let outputs = mix_hop(&mut rng, &kp.pk, &cts);
            let proof = prove_shuffle_workload(&mut rng, &cts, &outputs);
            assert!(verify_shuffle_workload(&proof, &cts, &outputs));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ahs_hop,
    bench_ahs_verify,
    bench_ahs_vs_vshuffle
);
criterion_main!(benches);
