//! Workload shapes, the seeded user population, and the per-round
//! correctness ledger.
//!
//! Everything a run feeds the deployment derives from the seed: the
//! manifest beacon, the key ceremony, the users, the churn window and
//! the malicious submissions.  The ledger counts every mailbox entry a
//! round should produce and every one that went missing, arrived twice
//! or arrived wrong, instead of panicking on the first.

use std::net::IpAddr;

use rand::{Rng, RngCore};

use xrd_core::deployment::{FetchResults, RoundReport};
use xrd_core::user::{Received, User};
use xrd_net::Manifest;

/// One benchmark workload: a deployment shape and a traffic pattern.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub n_users: usize,
    /// Mix servers; the manifest derives one chain per server.
    pub n_servers: usize,
    pub chain_len: usize,
    pub n_shards: usize,
    /// Supervised manifest (`restart 1`): journaled mix hops and
    /// segment-log mailbox stores.
    pub supervised: bool,
    /// Share of the unpaired users offline each round.
    pub offline_frac: f64,
    /// Submissions per chain per round that fail at the last layer.
    pub bad_per_chain: usize,
}

impl Shape {
    /// The named workload; `toy` shrinks the population for the
    /// self-check without changing the deployment shape.
    pub fn named(name: &str, toy: bool) -> Option<Shape> {
        let steady = Shape {
            name: "steady",
            n_users: if toy { 40 } else { 1000 },
            n_servers: 4,
            chain_len: 3,
            n_shards: 2,
            supervised: false,
            offline_frac: 0.0,
            bad_per_chain: 0,
        };
        match name {
            "steady" => Some(steady),
            "fanout" => Some(Shape {
                name: "fanout",
                n_users: 16,
                n_servers: 8,
                ..steady
            }),
            "churn" => Some(Shape {
                name: "churn",
                supervised: true,
                offline_frac: 0.4,
                bad_per_chain: 4,
                ..steady
            }),
            _ => None,
        }
    }

    /// The single-host loopback manifest, beacon drawn from the seed.
    pub fn manifest(&self, seed: u64) -> Manifest {
        let mut manifest = Manifest::single_host(
            "local",
            IpAddr::from([127, 0, 0, 1]),
            seed,
            self.n_servers,
            0.2,
            self.chain_len,
            self.n_shards,
            0,
        );
        manifest.restart = u32::from(self.supervised);
        manifest
    }

    /// Users in conversing pairs `(2i, 2i+1)`: half the population.
    pub fn paired(&self) -> usize {
        (self.n_users / 2) & !1
    }

    /// The parameters, as `key=value` pairs for the provenance record.
    pub fn describe(&self) -> String {
        format!(
            "users={} paired={} servers={} chains={} k={} shards={} supervised={} \
             offline_frac={} bad_per_chain={}",
            self.n_users,
            self.paired(),
            self.n_servers,
            self.n_servers,
            self.chain_len,
            self.n_shards,
            self.supervised,
            self.offline_frac,
            self.bad_per_chain
        )
    }
}

/// What one round should produce and what it got wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Mailbox entries the online users should fetch.
    pub expected: u64,
    /// Expected entries missing, duplicated or wrong, plus one per
    /// protocol anomaly (failed or aborted chain, convicted or suspected
    /// server, blame or delivery count off).
    pub failed: u64,
    /// Entries the online users actually fetched.
    pub fetched: u64,
}

impl Tally {
    /// Add another round's counts into this running total.
    pub fn absorb(&mut self, other: &Tally) {
        self.expected += other.expected;
        self.failed += other.failed;
        self.fetched += other.fetched;
    }
}

/// The seeded population and its expected mailbox state.
pub struct Population {
    pub users: Vec<User>,
    paired: usize,
    ell: usize,
    /// Offline users per round (a window over the unpaired users).
    window: usize,
    /// Seed-drawn start of the rotating offline window.
    offset: usize,
    /// A stored §5.3.3 cover exists (the user was online last round).
    has_cover: Vec<bool>,
    /// Covered rounds missed since the user last fetched.
    backlog: Vec<usize>,
    /// Offline users whose cover the prepared round replays.
    covered: usize,
}

impl Population {
    pub fn new<R: RngCore + ?Sized>(rng: &mut R, shape: &Shape, ell: usize) -> Population {
        let mut users: Vec<User> = (0..shape.n_users).map(|_| User::new(rng)).collect();
        let paired = shape.paired();
        for i in (0..paired).step_by(2) {
            let (a, b) = (users[i].pk(), users[i + 1].pk());
            users[i].start_conversation(b);
            users[i + 1].start_conversation(a);
        }
        let unpaired = shape.n_users - paired;
        // Consecutive windows are disjoint, so nobody misses two rounds
        // in a row (a cover carries exactly one round).
        let window = ((unpaired as f64 * shape.offline_frac) as usize).min(unpaired / 2);
        let offset = if unpaired > 0 {
            rng.gen_range(0..unpaired)
        } else {
            0
        };
        Population {
            has_cover: vec![false; users.len()],
            backlog: vec![0; users.len()],
            users,
            paired,
            ell,
            window,
            offset,
            covered: 0,
        }
    }

    fn partner(i: usize) -> usize {
        i ^ 1
    }

    fn chat_tag(round: u64, from: usize, to: usize) -> Vec<u8> {
        format!("r{round} {from}->{to}").into_bytes()
    }

    /// Set who is online in `round` (everyone in round 0, then a window
    /// of the unpaired users rotating by its own width) and queue this
    /// round's tagged chats.
    pub fn prepare(&mut self, round: u64) {
        let unpaired = self.users.len() - self.paired;
        for (j, user) in self.users[self.paired..].iter_mut().enumerate() {
            user.online = if round == 0 || self.window == 0 {
                true
            } else {
                let start = self.offset + (round as usize - 1) * self.window;
                (j + unpaired - start % unpaired) % unpaired >= self.window
            };
        }
        for i in 0..self.paired {
            let tag = Self::chat_tag(round, i, Self::partner(i));
            self.users[i].queue_chat(tag);
        }
        self.covered = 0;
        for (i, user) in self.users.iter().enumerate() {
            if !user.online && self.has_cover[i] {
                self.has_cover[i] = false;
                self.backlog[i] += 1;
                self.covered += 1;
            }
        }
    }

    /// Users online in the prepared round.
    pub fn online(&self) -> usize {
        self.users.iter().filter(|u| u.online).count()
    }

    /// Messages the prepared round should deliver: ℓ for every online
    /// user and for every offline user whose cover is replayed.
    fn expected_delivered(&self) -> usize {
        (self.online() + self.covered) * self.ell
    }

    /// Check a completed round against the expectations `prepare` set;
    /// `injected` is the number of malicious submissions it carried.
    pub fn check(
        &mut self,
        round: u64,
        report: &RoundReport,
        fetched: &FetchResults,
        injected: usize,
    ) -> Tally {
        let mut tally = Tally::default();
        let anomalies = report.failed_chains.len()
            + report.aborted_chains.len()
            + report
                .convicted_by_chain
                .values()
                .map(Vec::len)
                .sum::<usize>()
            + report
                .suspected_by_chain
                .values()
                .map(Vec::len)
                .sum::<usize>()
            + report
                .malicious_by_chain
                .values()
                .sum::<usize>()
                .abs_diff(injected)
            + report.delivered.abs_diff(self.expected_delivered());
        tally.failed += anomalies as u64;

        for (i, user) in self.users.iter().enumerate() {
            if !user.online {
                continue;
            }
            let expected = self.expected_of(i);
            self.backlog[i] = 0;
            self.has_cover[i] = true;
            tally.expected += expected as u64;
            let got: &[Received] = fetched
                .get(&user.mailbox_id())
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            tally.fetched += got.len() as u64;
            let loopbacks = got.iter().filter(|r| **r == Received::Loopback).count();
            let correct = if i < self.paired {
                let expect = Self::chat_tag(round, Self::partner(i), i);
                let chats = got
                    .iter()
                    .filter(|r| matches!(r, Received::Chat { data, .. } if *data == expect))
                    .count();
                loopbacks.min(expected - 1) + usize::from(chats == 1)
            } else {
                loopbacks.min(expected)
            };
            // `correct` counts entries of `got`, so neither side underflows.
            let wrong = (expected - correct).max(got.len() - correct);
            tally.failed += wrong.min(expected) as u64;
        }
        tally
    }

    /// Entries online user `i` should fetch: this round's ℓ plus ℓ per
    /// covered round it missed.
    fn expected_of(&self, i: usize) -> usize {
        self.ell * (1 + self.backlog[i])
    }

    /// Total expected entries for a round that failed as a whole.
    pub fn expected_all(&self) -> u64 {
        (0..self.users.len())
            .filter(|&i| self.users[i].online)
            .map(|i| self.expected_of(i) as u64)
            .sum()
    }
}
