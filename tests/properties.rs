//! Property-based tests (proptest) on the system's core invariants,
//! spanning crates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::crypto::ristretto::GroupElement;
use xrd::crypto::scalar::Scalar;
use xrd::crypto::{adec, aenc, round_nonce};
use xrd::mixnet::client::{seal_ahs, SealKeys};
use xrd::mixnet::{generate_chain_keys, open_batch, MailboxMessage, MixServer, PAYLOAD_LEN};
use xrd::topology::SelectionTable;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// §5.3.1's guarantee, for arbitrary network sizes: every pair of
    /// groups shares a chain, and groups have exactly ℓ entries.
    #[test]
    fn selection_pairwise_intersection(n in 1usize..400) {
        let table = SelectionTable::build(n);
        prop_assert_eq!(table.num_groups(), table.ell + 1);
        for a in 0..table.num_groups() {
            prop_assert_eq!(table.groups[a].len(), table.ell);
            for b in a..table.num_groups() {
                prop_assert!(table.meeting_chain(a, b).is_some());
            }
        }
    }

    /// ℓ is within the √2-approximation band of the √n lower bound.
    #[test]
    fn ell_is_sqrt2_approximation(n in 1usize..100_000) {
        let ell = xrd::topology::ell_for_chains(n) as f64;
        let sqrt_n = (n as f64).sqrt();
        prop_assert!(ell + 1e-9 >= sqrt_n * 0.99);
        prop_assert!(ell <= (2.0 * n as f64).sqrt() + 1.0);
    }

    /// AEAD roundtrip + tamper rejection for arbitrary payloads.
    #[test]
    fn aead_roundtrip_and_tamper(
        key in prop::array::uniform32(any::<u8>()),
        round in any::<u64>(),
        domain in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        flip_byte in any::<prop::sample::Index>(),
    ) {
        let nonce = round_nonce(round, domain);
        let sealed = aenc(&key, &nonce, b"", &payload);
        let opened = adec(&key, &nonce, b"", &sealed);
        prop_assert_eq!(opened.as_deref(), Some(&payload[..]));
        let mut bad = sealed.clone();
        let i = flip_byte.index(bad.len());
        bad[i] ^= 0x01;
        prop_assert!(adec(&key, &nonce, b"", &bad).is_none());
    }

    /// Group algebra: (a+b)G == aG + bG and DH commutativity for
    /// arbitrary scalars.
    #[test]
    fn group_homomorphism(a_seed in any::<u64>(), b_seed in any::<u64>()) {
        let mut rng_a = StdRng::seed_from_u64(a_seed);
        let mut rng_b = StdRng::seed_from_u64(b_seed ^ 0x5555);
        let a = Scalar::random(&mut rng_a);
        let b = Scalar::random(&mut rng_b);
        let lhs = GroupElement::base_mul(&a.add(&b));
        let rhs = GroupElement::base_mul(&a).add(&GroupElement::base_mul(&b));
        prop_assert!(lhs == rhs);
        let ga = GroupElement::base_mul(&a);
        let gb = GroupElement::base_mul(&b);
        prop_assert!(ga.mul(&b) == gb.mul(&a));
    }
}

proptest! {
    // Mixing is expensive; use fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full-chain invariant: for arbitrary chain lengths, batch
    /// sizes, and rounds, AHS delivers exactly the submitted multiset of
    /// mailbox messages (shuffled).
    #[test]
    fn ahs_chain_is_a_permutation(
        seed in any::<u64>(),
        k in 1usize..4,
        batch in 1usize..10,
        round in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (secrets, public) = generate_chain_keys(&mut rng, k, round);
        let msgs: Vec<MailboxMessage> = (0..batch)
            .map(|i| MailboxMessage {
                mailbox: [i as u8; 32],
                sealed: vec![(i * 3) as u8; PAYLOAD_LEN + 16],
            })
            .collect();
        let seal_keys = SealKeys::new(&public);
        let mut entries: Vec<xrd::mixnet::MixEntry> = msgs
            .iter()
            .map(|m| seal_ahs(&mut rng, &seal_keys, round, m).to_entry())
            .collect();
        let mut servers: Vec<MixServer> = secrets
            .into_iter()
            .map(|s| MixServer::new(s, public.clone()))
            .collect();
        for server in servers.iter_mut() {
            let out = server.process_round(&mut rng, round, entries).unwrap();
            entries = out.outputs;
        }
        let inner: Vec<Scalar> = servers.iter().map(|s| s.reveal_inner_key()).collect();
        let mut delivered: Vec<MailboxMessage> = open_batch(&inner, round, &entries)
            .into_iter()
            .map(|m| m.expect("honest batch opens"))
            .collect();
        delivered.sort_by_key(|x| x.mailbox);
        let mut expected = msgs;
        expected.sort_by_key(|x| x.mailbox);
        prop_assert_eq!(delivered, expected);
    }
}
