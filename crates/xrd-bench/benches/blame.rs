//! The blame protocol's cost (Figure 7's kernel): tracing one
//! misauthenticated ciphertext back through a chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_mixnet::blame::BlameVerdict;
use xrd_mixnet::client::{seal_ahs, SealKeys};
use xrd_mixnet::testutil::malicious_submission;
use xrd_mixnet::{run_blame, ChainRunner, MailboxMessage, MixError, PAYLOAD_LEN};

fn bench_blame(c: &mut Criterion) {
    let mut group = c.benchmark_group("blame");
    group.sample_size(10);
    for &k in &[4usize, 8, 16] {
        let mut rng = StdRng::seed_from_u64(7);
        let round = 0;
        let mut chain = ChainRunner::new(&mut rng, k, round);
        let msg = MailboxMessage {
            mailbox: [1u8; 32],
            sealed: vec![0u8; PAYLOAD_LEN + 16],
        };
        let seal_keys = SealKeys::new(chain.public());
        let mut subs: Vec<xrd_mixnet::Submission> = (0..8)
            .map(|_| seal_ahs(&mut rng, &seal_keys, round, &msg))
            .collect();
        subs[3] = malicious_submission(&mut rng, chain.public(), round, k - 1);

        let public = chain.public().clone();
        let servers = chain.servers_mut();
        let mut entries: Vec<xrd_mixnet::MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let mut failure = None;
        for (pos, server) in servers.iter_mut().enumerate() {
            match server.process_round(&mut rng, round, entries.clone()) {
                Ok(res) => entries = res.outputs,
                Err(MixError::DecryptFailure(idx)) => {
                    failure = Some((pos, idx[0]));
                    break;
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        let (pos, idx) = failure.expect("must fail at last hop");
        assert_eq!(pos, k - 1);

        group.bench_with_input(BenchmarkId::new("trace_k", k), &k, |b, _| {
            b.iter(|| {
                let verdict = run_blame(&mut rng, &public, servers, &subs, round, pos, idx);
                assert_eq!(
                    verdict,
                    BlameVerdict::MaliciousUser {
                        submission_index: 3
                    }
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blame);
criterion_main!(benches);
