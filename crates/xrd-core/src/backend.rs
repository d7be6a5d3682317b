//! The round-protocol backend abstraction.
//!
//! A *backend* is anything that can execute one XRD round for a set of
//! users: the in-process [`Deployment`](crate::Deployment) (every hop a
//! function call) or a networked deployment (every hop a TCP exchange,
//! see the `xrd-net` crate).  Tests and experiment harnesses written
//! against [`RoundBackend`] run unchanged on either, which is how the
//! two are held to identical protocol semantics.
//!
//! The *user side* of a round — sealing ℓ submissions per user against
//! the current keys, pre-sealing §5.3.3 covers against the next round's
//! keys, and decrypting fetched mailboxes — is the same regardless of
//! where the servers live, so it is implemented once here
//! ([`collect_submissions`], [`open_fetched`]) and shared by every
//! backend.  Sealing runs on every core: users are split across one
//! scoped thread per available core, each user sealing from her own
//! RNG stream, so the batches do not depend on the core count.

use std::collections::HashMap;

use rand::RngCore;

use xrd_crypto::ChaChaRng;
use xrd_mixnet::client::{SealKeys, Submission};
use xrd_mixnet::ChainPublicKeys;
use xrd_topology::{ChainId, Topology};

use crate::deployment::{FetchResults, RoundReport};
use crate::mailbox::MailboxError;
use crate::user::{Received, User};

/// Stored §5.3.3 cover submissions, keyed by mailbox id: what the
/// servers replay for a user who went offline after round ρ.
pub type CoverStore = HashMap<[u8; 32], Vec<(ChainId, Submission)>>;

/// A round that could not complete at all.
///
/// Per-chain trouble — a dead daemon, a convicted liar, a timed-out
/// mix pass — does *not* produce a `RoundError`: the backend degrades
/// the round to the surviving chains and reports the casualties in
/// [`RoundReport::failed_chains`].  A `RoundError` means the round's
/// outputs are unusable as a whole: the mailbox layer was unreachable
/// (no user can fetch, so delivery cannot be claimed for anyone), or
/// every chain failed before delivery.
#[derive(Debug)]
pub enum RoundError {
    /// Shared infrastructure (mailbox shards, fetch path) failed at the
    /// transport layer.
    Infrastructure {
        /// The round that failed.
        round: u64,
        /// What broke, in human terms.
        message: String,
    },
    /// The mailbox tier itself refused or failed an operation (typed:
    /// an overfull shard, a storage failure, a client cursor bug) —
    /// see [`MailboxError`].
    Mailbox {
        /// The round that failed.
        round: u64,
        /// The store's typed error.
        error: MailboxError,
    },
    /// Every chain in the deployment failed this round; nothing was
    /// mixed or delivered.
    AllChainsFailed {
        /// The round that failed.
        round: u64,
    },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::Infrastructure { round, message } => {
                write!(f, "round {round} infrastructure failure: {message}")
            }
            RoundError::Mailbox { round, error } => {
                write!(f, "round {round} mailbox failure: {error}")
            }
            RoundError::AllChainsFailed { round } => {
                write!(f, "round {round}: every chain failed")
            }
        }
    }
}

impl std::error::Error for RoundError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoundError::Mailbox { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Anything that can run XRD rounds for a set of users.
pub trait RoundBackend {
    /// The network shape this backend executes on.
    fn topology(&self) -> &Topology;

    /// The next round number to be executed.
    fn round(&self) -> u64;

    /// The chain key bundles for the current round (what fresh
    /// submissions are sealed against).
    fn chain_keys(&self) -> &[ChainPublicKeys];

    /// Execute one full round (Figure 1) and return the report plus
    /// each online user's decrypted mailbox contents.
    ///
    /// `Err` is reserved for failures that void the whole round (see
    /// [`RoundError`]); chains that fail while others survive degrade
    /// the round instead and are listed in
    /// [`RoundReport::failed_chains`].
    fn run_round(
        &mut self,
        rng: &mut dyn RngCore,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError>;
}

/// Build the per-chain submission batches for one round: online users
/// seal fresh messages for `round` and store covers for `round + 1`;
/// offline users fall back to their stored covers (§5.3.3).
///
/// Sealing runs on every available core.  The current and next key
/// bundles' [`SealKeys`] tables are built first, then users are split
/// into one contiguous slice per worker.  Each user seals from her own
/// [`ChaChaRng`], forked by user index from one seed drawn from `rng`,
/// and the batches are merged in user order, so the output does not
/// depend on the number of workers.
pub fn collect_submissions<R: RngCore + ?Sized>(
    rng: &mut R,
    topo: &Topology,
    current_keys: &[ChainPublicKeys],
    next_keys: &[ChainPublicKeys],
    round: u64,
    cover_store: &mut CoverStore,
    users: &[User],
) -> Vec<Vec<Submission>> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    collect_submissions_on(
        workers,
        rng,
        topo,
        current_keys,
        next_keys,
        round,
        cover_store,
        users,
    )
}

/// [`collect_submissions`] on exactly `workers` threads (the seam the
/// worker-count independence test drives).
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_submissions_on<R: RngCore + ?Sized>(
    workers: usize,
    rng: &mut R,
    topo: &Topology,
    current_keys: &[ChainPublicKeys],
    next_keys: &[ChainPublicKeys],
    round: u64,
    cover_store: &mut CoverStore,
    users: &[User],
) -> Vec<Vec<Submission>> {
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let root = ChaChaRng::new(seed);

    let bundles: Vec<&ChainPublicKeys> = current_keys.iter().chain(next_keys).collect();
    let mut tables = par_map(workers, &bundles, |_, keys| SealKeys::new(keys));
    let next_tables = tables.split_off(current_keys.len());

    // Online users seal (current, cover); offline users seal nothing.
    type Sealed = Option<(Vec<(ChainId, Submission)>, Vec<(ChainId, Submission)>)>;
    let sealed: Vec<Sealed> = par_map(workers, users, |i, user| {
        user.online.then(|| {
            let mut rng = root.fork(&i.to_string());
            let current = user.seal_round(&mut rng, topo, &tables, round, false);
            let cover = user.seal_round(&mut rng, topo, &next_tables, round + 1, true);
            (current, cover)
        })
    });

    let mut per_chain: Vec<Vec<Submission>> = vec![Vec::new(); topo.n_chains()];
    for (user, sealed) in users.iter().zip(sealed) {
        let submissions = match sealed {
            Some((current, cover)) => {
                cover_store.insert(user.mailbox_id(), cover);
                current
            }
            None => match cover_store.remove(&user.mailbox_id()) {
                Some(cover) => cover,
                None => continue, // offline with no cover: absent
            },
        };
        for (chain, sub) in submissions {
            per_chain[chain.0 as usize].push(sub);
        }
    }
    per_chain
}

/// `items.iter().enumerate().map(f)` on up to `workers` scoped threads,
/// one contiguous slice each, results in input order.
fn par_map<T: Sync, U: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(c * chunk + i, t))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sealing worker panicked"))
            .collect()
    })
}

/// The fetch-and-decrypt half of a round: every online user opens the
/// sealed blobs `fetch` returns for her mailbox, conversation
/// bookkeeping advances, and partners who signalled offline are dropped
/// (§5.3.3).  `fetch` is the only backend-specific part — a local
/// mailbox drain or a paginated exchange with a mailbox daemon — and is
/// fallible: the first error aborts the fetch phase for the round.
///
/// Each fetched entry carries the **round it was delivered in**
/// (mailbox sealing nonces are round-scoped): a user reconnecting
/// after missing rounds opens each accumulated entry with its own
/// delivery round, not the current one.
pub fn open_fetched(
    topo: &Topology,
    users: &mut [User],
    mut fetch: impl FnMut(&[u8; 32]) -> Result<Vec<(u64, Vec<u8>)>, RoundError>,
) -> Result<FetchResults, RoundError> {
    let mut fetched: FetchResults = HashMap::new();
    for user in users.iter_mut() {
        if !user.online {
            continue;
        }
        let sealed = fetch(&user.mailbox_id())?;
        let received = user.open_mailbox(topo, &sealed);
        // Conversation bookkeeping: consume the queued chats that went
        // out this round.
        if !user.partners().is_empty() {
            user.mark_round_sent();
        }
        // Partner-offline handling: stop conversing with exactly the
        // partner who left (§5.3.3).
        let offline: Vec<[u8; 32]> = received
            .iter()
            .filter_map(|r| match r {
                Received::PartnerOffline { partner } => Some(*partner),
                _ => None,
            })
            .collect();
        for partner in offline {
            user.end_conversation_with(&partner);
        }
        fetched.insert(user.mailbox_id(), received);
    }
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, DeploymentConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    type Wire = Vec<Vec<Vec<u8>>>;
    type StoredWire = BTreeMap<[u8; 32], Vec<(ChainId, Vec<u8>)>>;

    fn wire(batches: &[Vec<Submission>]) -> Wire {
        batches
            .iter()
            .map(|batch| batch.iter().map(Submission::to_bytes).collect())
            .collect()
    }

    fn stored_wire(store: &CoverStore) -> StoredWire {
        store
            .iter()
            .map(|(id, cover)| {
                let subs = cover.iter().map(|(c, s)| (*c, s.to_bytes())).collect();
                (*id, subs)
            })
            .collect()
    }

    fn population(rng: &mut StdRng, n: usize) -> Vec<User> {
        let mut users: Vec<User> = (0..n).map(|_| User::new(rng)).collect();
        let (a, b) = (users[0].pk(), users[1].pk());
        users[0].start_conversation(b);
        users[1].start_conversation(a);
        users[0].queue_chat(b"hello".to_vec());
        users
    }

    #[test]
    fn batches_do_not_depend_on_worker_count() {
        let mut rng = StdRng::seed_from_u64(21);
        let deployment = Deployment::new(&mut rng, DeploymentConfig::small(4, 2));
        let mut users = population(&mut rng, 9);
        users[4].online = false; // offline with no stored cover: absent
        let run = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut store = CoverStore::new();
            let batches = collect_submissions_on(
                workers,
                &mut rng,
                deployment.topology(),
                deployment.chain_keys(),
                deployment.next_chain_keys(),
                deployment.round(),
                &mut store,
                &users,
            );
            (wire(&batches), stored_wire(&store))
        };
        let serial = run(1);
        let ell = deployment.topology().ell();
        let sealed: usize = serial.0.iter().map(Vec::len).sum();
        assert_eq!(sealed, 8 * ell, "every online user seals ℓ");
        assert_eq!(serial.1.len(), 8, "every online user stores a cover");
        for workers in [2, 3, 4, 16] {
            assert!(
                run(workers) == serial,
                "{workers} workers changed the output"
            );
        }
    }

    #[test]
    fn offline_user_submits_the_cover_it_stored() {
        let mut rng = StdRng::seed_from_u64(22);
        let deployment = Deployment::new(&mut rng, DeploymentConfig::small(4, 2));
        let mut users = population(&mut rng, 6);
        let topo = deployment.topology();
        let ell = topo.ell();
        let mut store = CoverStore::new();
        let mut collect = |round: u64, users: &[User], store: &mut CoverStore| {
            collect_submissions_on(
                2,
                &mut rng,
                topo,
                deployment.chain_keys(),
                deployment.next_chain_keys(),
                round,
                store,
                users,
            )
        };
        collect(0, &users, &mut store);
        let leaving = users[1].mailbox_id();
        let stored = store[&leaving].clone();
        assert_eq!(stored.len(), ell);

        // Round 1: the partner who left is represented by exactly her
        // stored cover, each on the chain it was sealed for.
        users[1].online = false;
        let batches = collect(1, &users, &mut store);
        for (chain, cover) in &stored {
            let batch = &batches[chain.0 as usize];
            assert_eq!(batch.iter().filter(|s| *s == cover).count(), 1);
        }
        let sealed: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(sealed, 6 * ell);
        assert!(!store.contains_key(&leaving), "a cover is replayed once");

        // Round 2: still offline, nothing left to replay.
        let batches = collect(2, &users, &mut store);
        let sealed: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(sealed, 5 * ell);
    }
}
