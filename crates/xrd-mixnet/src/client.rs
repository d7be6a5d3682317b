//! Client-side onion encryption.
//!
//! Two variants:
//!
//! * [`seal_ahs`] — the AHS "double envelope" (§6.2): one Diffie-Hellman
//!   exponent `x` shared across all outer layers (so servers can blind
//!   and verify aggregates), an inner envelope encrypted to the product
//!   of the per-round inner keys, and a NIZK proving knowledge of `x`.
//!   It seals off a chain's [`SealKeys`]: fixed-base tables of the
//!   chain's keys, built once per bundle and shared by every seal.
//! * [`seal_basic`] — the baseline Algorithm 2 onion (fresh DH key per
//!   layer, no proofs), kept for the protocol ablation and as the
//!   passive-adversary baseline of §5.
//!
//! Both produce fixed-size submissions for a given chain length, which
//! tests assert (uniform message size is part of the privacy argument).

use rand::RngCore;

use xrd_crypto::aead::{aenc, round_nonce};
use xrd_crypto::kdf;
use xrd_crypto::nizk::SchnorrProof;
use xrd_crypto::ristretto::{GroupBaseTable, GroupElement};
use xrd_crypto::scalar::Scalar;
use xrd_crypto::SCHNORR_PROOF_LEN;

use crate::chain_keys::ChainPublicKeys;
use crate::message::{
    domain_outer, inner_envelope_len, outer_ct_len, MailboxMessage, MixEntry, DOMAIN_INNER,
};

/// A user's AHS submission to one chain: `(g^x, c_1)` plus the proof of
/// knowledge of `x` (§6.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submission {
    /// `g^x`.
    pub dh: GroupElement,
    /// Outer onion ciphertext `c_1`.
    pub ct: Vec<u8>,
    /// NIZK PoK of `x` (knowledge-of-discrete-log, \[9\]).
    pub pok: SchnorrProof,
}

impl Submission {
    /// Serialized size in bytes (for the Figure 2 bandwidth accounting).
    pub fn wire_len(&self) -> usize {
        32 + self.ct.len() + SCHNORR_PROOF_LEN
    }

    /// Verify the knowledge proof (run by every server on submission).
    pub fn verify_pok(&self, round: u64) -> bool {
        self.pok.verify(
            &submission_context(round),
            &GroupElement::generator(),
            &self.dh,
        )
    }

    /// View as the first hop's mix entry.
    pub fn to_entry(&self) -> MixEntry {
        MixEntry {
            dh: self.dh,
            ct: self.ct.clone(),
        }
    }

    /// Serialize to the wire format: `g^x || PoK || onion`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.dh.encode());
        out.extend_from_slice(&self.pok.to_bytes());
        out.extend_from_slice(&self.ct);
        out
    }

    /// Parse from the wire format.  `k` is the chain length (fixing the
    /// onion size); returns `None` on any structural problem.  The PoK is
    /// *not* verified here — servers call [`Submission::verify_pok`]
    /// after parsing, as the protocol prescribes.
    pub fn from_bytes(bytes: &[u8], k: usize) -> Option<Submission> {
        let expect = 32 + SCHNORR_PROOF_LEN + outer_ct_len(k);
        if bytes.len() != expect {
            return None;
        }
        let mut dh_bytes = [0u8; 32];
        dh_bytes.copy_from_slice(&bytes[..32]);
        let dh = GroupElement::decode(&dh_bytes)?;
        let pok = SchnorrProof::from_bytes(&bytes[32..32 + SCHNORR_PROOF_LEN])?;
        Some(Submission {
            dh,
            ct: bytes[32 + SCHNORR_PROOF_LEN..].to_vec(),
            pok,
        })
    }
}

/// Fiat–Shamir context binding submissions to a round.
pub fn submission_context(round: u64) -> Vec<u8> {
    let mut ctx = b"xrd/submission".to_vec();
    ctx.extend_from_slice(&round.to_le_bytes());
    ctx
}

/// KDF context for outer layer `i` of a round.
pub(crate) fn outer_layer_context(round: u64, layer: usize) -> Vec<u8> {
    let mut ctx = round.to_le_bytes().to_vec();
    ctx.extend_from_slice(&(layer as u64).to_le_bytes());
    ctx
}

/// Symmetric key for outer layer `layer`, derived from the layer's DH
/// shared element; used identically by the user (from `mpk_i^x`) and
/// server `i` (from `X_i^{msk_i}` — the same element by the AHS algebra).
pub(crate) fn outer_layer_key(shared: &GroupElement, round: u64, layer: usize) -> [u8; 32] {
    kdf::derive_from_dh(
        "xrd/outer-layer",
        shared,
        &outer_layer_context(round, layer),
    )
}

/// Symmetric key for the inner envelope.
pub(crate) fn inner_key(shared: &GroupElement, round: u64) -> [u8; 32] {
    kdf::derive_from_dh("xrd/inner-envelope", shared, &round.to_le_bytes())
}

/// One chain's public keys in the shape sealing wants: a fixed-base
/// table of each mixing key `mpk_1..mpk_k` and of the aggregate inner
/// key `∏ ipk_i`.
///
/// Every user seals against the same keys with her own secret `x` and
/// `y`, so the tables are built once per key bundle (one batched field
/// inversion for all `k + 1` of them) and each seal's `k + 1`
/// exponentiations become doubling-free table walks.  A client that
/// keeps its tables across rounds re-tables only the per-round inner
/// key ([`SealKeys::refresh`]): the mixing keys are long-term.
pub struct SealKeys {
    /// `mpk_1, …, mpk_k`, the keys the tables below were built from.
    mpk_points: Vec<GroupElement>,
    /// Tables of `mpk_1, …, mpk_k`.
    mpks: Vec<GroupBaseTable>,
    /// Table of `∏ ipk_i`.
    inner: GroupBaseTable,
}

impl SealKeys {
    /// Build the tables for one chain's key bundle.
    pub fn new(keys: &ChainPublicKeys) -> SealKeys {
        let mut points = keys.mpks.clone();
        points.push(keys.aggregate_inner_key());
        let mut mpks = GroupBaseTable::batch_new(&points);
        let inner = mpks.pop().expect("one table per key");
        SealKeys {
            mpk_points: keys.mpks.clone(),
            mpks,
            inner,
        }
    }

    /// Re-key to `keys`, a later bundle: when it carries the same
    /// mixing keys (same chain, same long-term epoch) only the
    /// aggregate inner key's table is rebuilt, otherwise all of them.
    pub fn refresh(&mut self, keys: &ChainPublicKeys) {
        if self.mpk_points == keys.mpks {
            self.inner = GroupBaseTable::new(&keys.aggregate_inner_key());
        } else {
            *self = SealKeys::new(keys);
        }
    }
}

/// AHS onion-encryption (§6.2): seal `msg` for the chain whose keys
/// `keys` holds, for round `round`.
pub fn seal_ahs<R: RngCore + ?Sized>(
    rng: &mut R,
    keys: &SealKeys,
    round: u64,
    msg: &MailboxMessage,
) -> Submission {
    let k = keys.mpks.len();
    assert!(k >= 1, "chain must have at least one server");

    // Inner envelope: e = (g^y, AEnc(DH(∏ipk, y), ρ, m)).
    let y = Scalar::random(rng);
    let shared_inner = keys.inner.mul(&y);
    let mut ct = Vec::with_capacity(inner_envelope_len());
    ct.extend_from_slice(&GroupElement::base_mul(&y).encode());
    ct.extend_from_slice(&aenc(
        &inner_key(&shared_inner, round),
        &round_nonce(round, DOMAIN_INNER),
        b"",
        &msg.to_bytes(),
    ));
    debug_assert_eq!(ct.len(), inner_envelope_len());

    // Outer layers, innermost (layer k-1) first: a single exponent x.
    let x = Scalar::random(rng);
    for layer in (0..k).rev() {
        let shared = keys.mpks[layer].mul(&x);
        ct = aenc(
            &outer_layer_key(&shared, round, layer),
            &round_nonce(round, domain_outer(layer)),
            b"",
            &ct,
        );
    }
    debug_assert_eq!(ct.len(), outer_ct_len(k));

    let dh = GroupElement::base_mul(&x);
    let pok = SchnorrProof::prove(
        rng,
        &submission_context(round),
        &GroupElement::generator(),
        &dh,
        &x,
    );
    Submission { dh, ct, pok }
}

/// Baseline Algorithm 2 onion: fresh DH key per layer, mixing keys are
/// ordinary `mpk_i = g^{msk_i}` pairs.  Layer format:
/// `g^{x_i} || AEnc(DH(mpk_i, x_i), ρ, next_layer)`.
pub fn seal_basic<R: RngCore + ?Sized>(
    rng: &mut R,
    mpks: &[GroupElement],
    round: u64,
    msg: &MailboxMessage,
) -> Vec<u8> {
    let mut ct = msg.to_bytes();
    for (layer, mpk) in mpks.iter().enumerate().rev() {
        let x = Scalar::random(rng);
        let key = outer_layer_key(&mpk.mul(&x), round, layer);
        let sealed = aenc(&key, &round_nonce(round, domain_outer(layer)), b"", &ct);
        let mut next = Vec::with_capacity(32 + sealed.len());
        next.extend_from_slice(&GroupElement::base_mul(&x).encode());
        next.extend_from_slice(&sealed);
        ct = next;
    }
    ct
}

/// Size of a basic (Algorithm 2) onion for chain length `k`: each layer
/// adds a fresh 32-byte DH key *and* a 16-byte tag.
pub fn basic_onion_len(k: usize) -> usize {
    crate::message::MAILBOX_MSG_LEN + k * (32 + xrd_crypto::TAG_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_keys::generate_chain_keys;
    use crate::message::{MAILBOX_MSG_LEN, PAYLOAD_LEN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    fn test_msg() -> MailboxMessage {
        MailboxMessage {
            mailbox: [5u8; 32],
            sealed: vec![1u8; PAYLOAD_LEN + TAG_LEN],
        }
    }

    #[test]
    fn ahs_submission_has_fixed_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, keys) = generate_chain_keys(&mut rng, 4, 3);
        let keys = SealKeys::new(&keys);
        let s1 = seal_ahs(&mut rng, &keys, 3, &test_msg());
        let other = MailboxMessage {
            mailbox: [9u8; 32],
            sealed: vec![200u8; PAYLOAD_LEN + TAG_LEN],
        };
        let s2 = seal_ahs(&mut rng, &keys, 3, &other);
        assert_eq!(s1.wire_len(), s2.wire_len());
        assert_eq!(s1.ct.len(), outer_ct_len(4));
    }

    #[test]
    fn pok_verifies_and_binds_round() {
        let mut rng = StdRng::seed_from_u64(2);
        let (_, keys) = generate_chain_keys(&mut rng, 3, 0);
        let keys = SealKeys::new(&keys);
        let s = seal_ahs(&mut rng, &keys, 7, &test_msg());
        assert!(s.verify_pok(7));
        assert!(!s.verify_pok(8));
    }

    #[test]
    fn manual_peel_recovers_message() {
        // Peel the onion the way servers will: layer keys from mpk_i^x
        // (user side equals X_i^{msk_i} — checked in server tests).
        let mut rng = StdRng::seed_from_u64(3);
        let k = 3;
        let (secrets, keys) = generate_chain_keys(&mut rng, k, 5);
        let keys = SealKeys::new(&keys);
        let msg = test_msg();
        let s = seal_ahs(&mut rng, &keys, 5, &msg);

        let mut ct = s.ct.clone();
        let mut x_i = s.dh;
        for layer in 0..k {
            let shared = x_i.mul(&secrets[layer].msk);
            let key = outer_layer_key(&shared, 5, layer);
            ct = xrd_crypto::adec(&key, &round_nonce(5, domain_outer(layer)), b"", &ct)
                .expect("layer must decrypt");
            x_i = x_i.mul(&secrets[layer].bsk);
        }
        // Inner envelope.
        let mut gy = [0u8; 32];
        gy.copy_from_slice(&ct[..32]);
        let gy = GroupElement::decode(&gy).unwrap();
        let isk_sum = secrets
            .iter()
            .fold(xrd_crypto::Scalar::ZERO, |a, s| a.add(&s.isk));
        let shared = gy.mul(&isk_sum);
        let inner = xrd_crypto::adec(
            &inner_key(&shared, 5),
            &round_nonce(5, DOMAIN_INNER),
            b"",
            &ct[32..],
        )
        .expect("inner must decrypt");
        assert_eq!(MailboxMessage::from_bytes(&inner).unwrap(), msg);
        assert_eq!(inner.len(), MAILBOX_MSG_LEN);
    }

    #[test]
    fn basic_onion_peels() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = 3;
        let msks: Vec<Scalar> = (0..k).map(|_| Scalar::random(&mut rng)).collect();
        let mpks: Vec<GroupElement> = msks.iter().map(GroupElement::base_mul).collect();
        let msg = test_msg();
        let mut ct = seal_basic(&mut rng, &mpks, 2, &msg);
        assert_eq!(ct.len(), basic_onion_len(k));

        for (layer, msk) in msks.iter().enumerate() {
            let mut gx = [0u8; 32];
            gx.copy_from_slice(&ct[..32]);
            let gx = GroupElement::decode(&gx).unwrap();
            let key = outer_layer_key(&gx.mul(msk), 2, layer);
            ct = xrd_crypto::adec(&key, &round_nonce(2, domain_outer(layer)), b"", &ct[32..])
                .expect("basic layer must decrypt");
        }
        assert_eq!(MailboxMessage::from_bytes(&ct).unwrap(), msg);
    }

    #[test]
    fn ahs_outer_is_smaller_than_basic() {
        // The AHS onion shares one DH key across layers: 32 bytes total
        // instead of 32 per layer.
        let k = 8;
        let ahs_len = 32 + outer_ct_len(k) + SCHNORR_PROOF_LEN;
        let basic_len = basic_onion_len(k);
        // For k >= 7 the PoK + inner envelope overhead is amortized.
        assert!(ahs_len < basic_len + 32 * (k - 4));
    }

    #[test]
    fn submission_serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let k = 3;
        let (_, keys) = generate_chain_keys(&mut rng, k, 0);
        let keys = SealKeys::new(&keys);
        let s = seal_ahs(&mut rng, &keys, 0, &test_msg());
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.wire_len());
        let parsed = Submission::from_bytes(&bytes, k).expect("roundtrip");
        assert_eq!(parsed.dh, s.dh);
        assert_eq!(parsed.ct, s.ct);
        assert!(parsed.verify_pok(0));
        // Wrong k (wrong expected size) is rejected.
        assert!(Submission::from_bytes(&bytes, k + 1).is_none());
        // Corrupted group encoding is rejected.
        let mut bad = bytes.clone();
        bad[..32].copy_from_slice(&[0xffu8; 32]);
        assert!(Submission::from_bytes(&bad, k).is_none());
    }

    #[test]
    fn submissions_are_unlinkable_bytes() {
        // Two submissions of the same message are entirely different.
        let mut rng = StdRng::seed_from_u64(5);
        let (_, keys) = generate_chain_keys(&mut rng, 2, 0);
        let keys = SealKeys::new(&keys);
        let s1 = seal_ahs(&mut rng, &keys, 0, &test_msg());
        let s2 = seal_ahs(&mut rng, &keys, 0, &test_msg());
        assert_ne!(s1.ct, s2.ct);
        assert_ne!(s1.dh, s2.dh);
    }

    #[test]
    fn refreshed_keys_seal_like_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(14);
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
        let (_, other_chain) = generate_chain_keys(&mut rng, 3, 0);
        let mut keys = SealKeys::new(&public);
        for inner_epoch in 1..3 {
            // Same chain, next round's inner keys: only the inner table
            // is rebuilt.
            crate::chain_keys::rotate_inner_keys(&mut rng, &mut secrets, &mut public, inner_epoch);
            keys.refresh(&public);
            let got = seal_ahs(
                &mut StdRng::seed_from_u64(inner_epoch),
                &keys,
                0,
                &test_msg(),
            );
            let want = seal_ahs(
                &mut StdRng::seed_from_u64(inner_epoch),
                &SealKeys::new(&public),
                0,
                &test_msg(),
            );
            assert_eq!(got, want);
        }
        // Another chain's bundle: every table is rebuilt.
        keys.refresh(&other_chain);
        let got = seal_ahs(&mut StdRng::seed_from_u64(9), &keys, 0, &test_msg());
        let want = seal_ahs(
            &mut StdRng::seed_from_u64(9),
            &SealKeys::new(&other_chain),
            0,
            &test_msg(),
        );
        assert_eq!(got, want);
    }

    /// Seals are pinned byte for byte: the digest below was produced by
    /// the variable-base seal (`mpk_i^x` and `(∏ ipk_i)^y` by the
    /// generic ladder) that the fixed-base tables replaced, from the
    /// same RNG stream.
    #[test]
    fn seal_bytes_are_pinned() {
        let mut rng = StdRng::seed_from_u64(13);
        let (_, keys) = generate_chain_keys(&mut rng, 3, 0);
        let keys = SealKeys::new(&keys);
        let mut wire = Vec::new();
        for round in 0..4u64 {
            wire.extend(seal_ahs(&mut rng, &keys, round, &test_msg()).to_bytes());
        }
        assert_eq!(
            xrd_crypto::util::to_hex(&xrd_crypto::blake2b_256(&wire)),
            "72efdd572250b5c55fc39391e9b5e93363830ec9e37a7eaef496fb6c03bffd48"
        );
    }
}
