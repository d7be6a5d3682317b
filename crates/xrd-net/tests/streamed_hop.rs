//! End-to-end tests for the streamed hop pipeline — the only way a
//! batch moves hop to hop: equivalence with the in-process hop, full
//! chain rounds over multi-chunk pipelines (including blame and an
//! empty batch), and the daemon's handling of malformed streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::{DeploymentConfig, User};
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::{verify_hop, MixServer};
use xrd_net::codec::{error_code, ChunkedBatch, Frame, StreamDigest, STREAM_CHUNK};
use xrd_net::swarm::{hop_request, read_hop_output};
use xrd_net::{launch_local, run_swarm, Conn, MixServerDaemon, NetError, SwarmConfig};
use xrd_topology::{ChainId, Topology};

/// Drive one daemon through a streamed hop and return its outputs and
/// proof.
fn streamed_hop(
    conn: &mut Conn,
    round: u64,
    entries: &[MixEntry],
    chunk: usize,
) -> Result<(Vec<MixEntry>, xrd_crypto::nizk::DleqProof), NetError> {
    let stream = ChunkedBatch::build(round, entries, chunk);
    for bytes in stream.frames() {
        conn.send_encoded(bytes)?;
    }
    read_hop_output(round, || conn.recv())
}

/// Users enough that every chain of `topo` receives more than
/// `2 × STREAM_CHUNK` submissions per round — a real multi-chunk
/// pipeline on every chain.
fn users_past_two_chunks(rng: &mut StdRng, topo: &Topology) -> Vec<User> {
    let mut per_chain = vec![0usize; topo.n_chains()];
    let mut users = Vec::new();
    while per_chain.iter().any(|&n| n <= 2 * STREAM_CHUNK) {
        let user = User::new(rng);
        for chain in topo.chains_of_user(&user.mailbox_id()) {
            per_chain[chain.0 as usize] += 1;
        }
        users.push(user);
    }
    users
}

/// The streamed daemon hop computes *exactly* the whole-batch
/// in-process hop: a daemon and an in-process [`MixServer`] with
/// identical secrets and rng seeds — one fed the batch as a chunk
/// stream, one handed it whole by `process_round` — produce
/// byte-identical shuffled outputs and attestation, and it verifies.
#[test]
fn streamed_and_whole_batch_hops_agree() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(11);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let secrets = secrets.remove(0);

    let streamed = MixServerDaemon::spawn("127.0.0.1:0", secrets.clone(), public.clone(), 42)
        .expect("streamed daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 37);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let whole = MixServer::new(secrets, public.clone())
        .process_round(&mut StdRng::seed_from_u64(42), round, entries.clone())
        .expect("in-process hop runs");

    let mut streamed_conn = Conn::connect(streamed.addr()).expect("connects");
    let (streamed_out, streamed_proof) =
        streamed_hop(&mut streamed_conn, round, &entries, 5).expect("streamed hop runs");

    // Same rng seed, same rng consumption order (the kernel draws no
    // randomness; only the shuffle and proof do): identical bytes.
    let encode = |outputs: &[MixEntry]| {
        Frame::HopOutputChunk {
            entries: outputs.to_vec(),
        }
        .encode()
    };
    assert_eq!(encode(&streamed_out), encode(&whole.outputs));
    assert_eq!(streamed_proof.to_bytes(), whole.proof.to_bytes());
    assert!(verify_hop(
        &public,
        0,
        round,
        &entries,
        &streamed_out,
        &streamed_proof
    ));
}

/// A full networked deployment whose chains each mix more than two
/// chunks: every round (mix, cross-verify, reveal, delivery, rotation)
/// completes and every chat lands through a real multi-chunk pipeline.
#[test]
fn streamed_chain_rounds_deliver() {
    let mut rng = StdRng::seed_from_u64(23);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    // ℓ = 3 of the 4 chains per user: 4 × STREAM_CHUNK users put about
    // 3 × STREAM_CHUNK entries on every chain.
    let n_users = 4 * STREAM_CHUNK;

    let report = run_swarm(
        &mut rng,
        &mut deployment,
        &SwarmConfig {
            n_users,
            rounds: 2,
            conversing_fraction: 0.5,
        },
    )
    .expect("streamed swarm round failed");
    assert_eq!(report.rounds.len(), 2);
    for round in &report.rounds {
        assert!(
            round.delivered > 0,
            "round {} delivered nothing",
            round.round
        );
    }
    cluster.shutdown();
}

/// Blame still works when the batch streams: a garbage onion triggers
/// `HopFailure` out of a multi-chunk streamed session, the §6.4 trace
/// convicts the injected submission, and the retried (streamed) pass
/// delivers every honest message.
#[test]
fn streamed_blame_removes_malicious_submission() {
    let mut rng = StdRng::seed_from_u64(4);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    let mut users = users_past_two_chunks(&mut rng, deployment.topology());
    let n_users = users.len();
    let bad = xrd_mixnet::testutil::malicious_submission(
        &mut rng,
        &deployment.chain_keys()[0],
        0,
        deployment.topology().chain_len() - 1,
    );
    deployment.inject_submission(ChainId(0), bad);

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    assert!(report.aborted_chains.is_empty(), "no server is at fault");
    assert_eq!(
        report.malicious_by_chain.get(&0),
        Some(&1),
        "the injected submission is convicted"
    );
    assert_eq!(
        report.delivered,
        n_users * ell,
        "honest messages all survive"
    );
    for user in &users {
        assert_eq!(fetched[&user.mailbox_id()].len(), ell);
    }
    cluster.shutdown();
}

/// A chain that receives zero submissions completes its round on the
/// streamed path — an empty stream through every hop, an empty
/// end-of-chain audit, a reveal — and is never written off as failed.
#[test]
fn chain_with_no_submissions_completes_its_round() {
    let mut rng = StdRng::seed_from_u64(61);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    // One user sends to ℓ = 3 of the 4 chains: the rest stay empty.
    let mut users = vec![User::new(&mut rng)];
    let used = deployment
        .topology()
        .chains_of_user(&users[0].mailbox_id())
        .to_vec();
    assert!(
        (0..deployment.topology().n_chains()).any(|c| !used.contains(&ChainId(c as u32))),
        "some chain receives no submission"
    );

    for _ in 0..2 {
        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .expect("round completes");
        assert!(
            report.failed_chains.is_empty(),
            "an empty chain is not a failed chain: {report:?}"
        );
        assert!(report.aborted_chains.is_empty());
        assert_eq!(report.delivered, ell);
        assert_eq!(fetched[&users[0].mailbox_id()].len(), ell);
    }
    cluster.shutdown();
}

/// Malformed streams are answered with `Error` frames and leave the
/// daemon serving: chunks without a Start, overrunning the declared
/// total, and a wrong closing digest.
#[test]
fn malformed_streams_rejected_cleanly() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(31);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 7)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 6);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let mut conn = Conn::connect(daemon.addr()).expect("connects");

    // 1. A chunk with no session open.
    match conn.request(&Frame::MixBatchChunk {
        entries: entries.clone(),
    }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("chunk without start not rejected: {other:?}"),
    }

    // 2. An End with no session open.
    match conn.request(&Frame::MixBatchEnd { digest: [0; 32] }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("end without start not rejected: {other:?}"),
    }

    // 3. Overrun: declare 2 entries, ship 6.
    conn.send(&Frame::MixBatchStart { round, total: 2 })
        .expect("start sends");
    match conn.request(&Frame::MixBatchChunk {
        entries: entries.clone(),
    }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("overrun not rejected: {other:?}"),
    }

    // 4. Digest mismatch: correct count, wrong closing digest.
    conn.send(&Frame::MixBatchStart {
        round,
        total: entries.len() as u32,
    })
    .expect("start sends");
    conn.send(&Frame::MixBatchChunk {
        entries: entries.clone(),
    })
    .expect("chunk sends");
    match conn.request(&Frame::MixBatchEnd { digest: [9; 32] }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("digest mismatch not rejected: {other:?}"),
    }

    // 5. A fresh Start replaces any aborted session, and the daemon
    // still runs a clean streamed hop on this same connection.
    let (outputs, proof) = streamed_hop(&mut conn, round, &entries, 2).expect("clean hop");
    assert_eq!(outputs.len(), entries.len());
    assert!(verify_hop(&public, 0, round, &entries, &outputs, &proof));
}

/// The stream digest really is what the daemon checks: a relay that
/// recomputes it from decoded entries gets the same value the builder
/// derived from its encoded payloads.
#[test]
fn builder_and_reencoded_digests_agree() {
    let mut rng = StdRng::seed_from_u64(55);
    let (_, public) = generate_chain_keys(&mut rng, 1, 0);
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 9);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let built = ChunkedBatch::build(0, &entries, 4);
    let mut digest = StreamDigest::new();
    digest.absorb_entries(&entries);
    assert_eq!(built.digest(), digest.finalize());
}

/// A client that fires a hop and vanishes mid-computation must not
/// wedge (or spin) the daemon: the orphaned job's response is
/// discarded and other connections keep being served immediately.
#[test]
fn disconnect_while_hop_pending_leaves_daemon_serving() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(77);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 3)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 200);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    // Fire a ~15ms hop and hang up without reading the response.
    let mut doomed = Conn::connect(daemon.addr()).expect("doomed connects");
    doomed
        .send_encoded(&hop_request(round, &entries))
        .expect("hop fires");
    drop(doomed);

    // While (and after) the orphaned job runs, the daemon serves.
    let mut conn = Conn::connect(daemon.addr()).expect("reconnect");
    let start = std::time::Instant::now();
    for _ in 0..20 {
        conn.ping().expect("ping served");
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "daemon unresponsive after mid-hop disconnect"
    );
    // And a full hop still completes on the surviving connection.
    let (outputs, proof) = streamed_hop(&mut conn, round, &entries, 50).expect("clean hop");
    assert!(verify_hop(&public, 0, round, &entries, &outputs, &proof));
}

/// A request/response client that half-closes (shutdown write) right
/// after firing a hop must still receive the deferred response — EOF
/// on the daemon's read is not a disconnect while the peer's read
/// half lives.
#[test]
fn half_closing_client_still_receives_deferred_response() {
    use std::io::Write;
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(91);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 5)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 60);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let mut stream = std::net::TcpStream::connect(daemon.addr()).expect("connects");
    stream
        .write_all(&hop_request(round, &entries))
        .expect("hop fires");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let next_frame = || match xrd_net::codec::read_frame(&mut stream) {
        Ok(Some(Ok(frame))) => Ok(frame),
        other => panic!("expected a hop output frame after half-close, got {other:?}"),
    };
    let (outputs, proof) = read_hop_output(round, next_frame).expect("hop output stream");
    assert!(verify_hop(&public, 0, round, &entries, &outputs, &proof));
}
