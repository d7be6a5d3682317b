//! Measuring the deployment from outside: each daemon's own registry
//! scraped over the wire with `StatsRequest`, and every process's CPU
//! time and peak RSS read from `/proc`.
//!
//! The launcher exposes no pids, so daemons are found by scanning
//! `/proc` for children of this process and named from their command
//! line with the same labels `LaunchedCluster::process_labels` uses.

use std::net::SocketAddr;

use xrd_net::{Conn, Frame, LaunchedCluster, NetError};
use xrd_obs::{HistSnapshot, Snapshot};

/// What a process serves, from its `process_labels()` label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// This process: the coordinator and the emulated clients.
    Coord,
    Mix,
    Mailbox,
}

impl Role {
    fn of_label(label: &str) -> Role {
        if label.starts_with("mix") {
            Role::Mix
        } else {
            Role::Mailbox
        }
    }
}

/// The listening address of every daemon of a launched cluster.
pub struct Daemons {
    addrs: Vec<SocketAddr>,
}

impl Daemons {
    pub fn of(cluster: &LaunchedCluster) -> Daemons {
        Daemons {
            addrs: (0..cluster.n_processes())
                .map(|i| cluster.process_addr(i))
                .collect(),
        }
    }

    /// Scrape every daemon once, in process order.
    pub fn scrape(&self) -> Result<Scrape, NetError> {
        let mut scrape = Scrape::default();
        for &addr in &self.addrs {
            let mut conn = Conn::connect(addr)?;
            let snapshot = match conn.request(&Frame::StatsRequest)? {
                Frame::StatsReport { snapshot } => *snapshot,
                other => {
                    return Err(NetError::Protocol(format!(
                        "{addr} answered StatsRequest with {}",
                        Frame::tag_name(other.tag()).unwrap_or("an unknown frame")
                    )))
                }
            };
            scrape.request_bytes += conn.bytes_sent();
            scrape.report_bytes += conn.bytes_received();
            scrape.snaps.push(snapshot);
        }
        Ok(scrape)
    }
}

/// One scrape of every daemon, plus the bytes the scrape itself put on
/// the wire (so traffic deltas can leave them out).
#[derive(Default)]
pub struct Scrape {
    pub snaps: Vec<Snapshot>,
    pub request_bytes: u64,
    pub report_bytes: u64,
}

/// Two scrapes bracketing an interval.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    fn pairs(&self) -> impl Iterator<Item = (&Snapshot, &Snapshot)> {
        self.before.snaps.iter().zip(&self.after.snaps)
    }

    /// Summed counter delta over every daemon.
    pub fn counter(&self, name: &str) -> u64 {
        self.pairs()
            .map(|(b, a)| a.counter(name).saturating_sub(b.counter(name)))
            .sum()
    }

    /// Summed delta of every counter whose name starts with `prefix`.
    pub fn counter_prefix(&self, prefix: &str) -> u64 {
        self.pairs()
            .map(|(b, a)| {
                a.counters
                    .iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .map(|(n, v)| v.saturating_sub(b.counter(n)))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Histogram delta merged over every daemon (bucket counts and sum;
    /// `max` is the largest post-interval max, an upper bound).
    pub fn hist(&self, name: &str) -> HistSnapshot {
        let mut merged: Option<HistSnapshot> = None;
        for (b, a) in self.pairs() {
            let Some(after) = a.hist(name) else { continue };
            let mut d = after.clone();
            if let Some(before) = b.hist(name) {
                d.count -= before.count;
                d.sum -= before.sum;
                for (x, y) in d.buckets.iter_mut().zip(&before.buckets) {
                    *x -= y;
                }
            }
            merged = Some(match merged {
                None => d,
                Some(mut m) => {
                    m.count += d.count;
                    m.sum += d.sum;
                    m.max = m.max.max(d.max);
                    for (x, y) in m.buckets.iter_mut().zip(&d.buckets) {
                        *x += y;
                    }
                    m
                }
            });
        }
        merged.unwrap_or_default()
    }

    /// Wire bytes every daemon read and wrote over the interval, less
    /// the bracketing scrapes' own traffic: the first scrape's reports
    /// are written after its snapshots were taken, and the second
    /// scrape's requests are read before its snapshots are.
    pub fn traffic_bytes(&self) -> u64 {
        (self.counter("reactor.bytes_in") + self.counter("reactor.bytes_out"))
            .saturating_sub(self.before.report_bytes + self.after.request_bytes)
    }
}

/// CPU time (ms) and peak RSS (KiB) of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    pub cpu_ms: f64,
    pub hwm_kb: u64,
}

/// `/proc` readings for this process and every daemon, by role.
pub struct Procs {
    /// Clock ticks per second (`getconf CLK_TCK`).
    clk_tck: f64,
    pids: Vec<(u32, Role)>,
}

impl Procs {
    /// Find this process's daemon children (`xrd-netd` with a parent
    /// pid of ours) and check they match the cluster's labels.
    pub fn discover(cluster: &LaunchedCluster, clk_tck: f64) -> Result<Procs, String> {
        let me = std::process::id();
        let mut pids = vec![(me, Role::Coord)];
        let mut found: Vec<String> = Vec::new();
        for entry in std::fs::read_dir("/proc").map_err(|e| format!("/proc: {e}"))? {
            let Ok(entry) = entry else { continue };
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let Some(fields) = stat_fields(pid) else {
                continue;
            };
            if fields.get(1).and_then(|p| p.parse::<u32>().ok()) != Some(me) {
                continue;
            }
            let Some(label) = daemon_label(pid) else {
                continue;
            };
            pids.push((pid, Role::of_label(&label)));
            found.push(label);
        }
        let mut want = cluster.process_labels();
        want.sort();
        found.sort();
        if want != found {
            return Err(format!(
                "daemon children {found:?} do not match the cluster's processes {want:?}"
            ));
        }
        Ok(Procs { clk_tck, pids })
    }

    /// Current readings, summed per role.
    pub fn read(&self) -> Vec<(Role, ProcStat)> {
        let mut out: Vec<(Role, ProcStat)> = Vec::new();
        for &(pid, role) in &self.pids {
            let stat = self.stat(pid);
            match out.iter_mut().find(|(r, _)| *r == role) {
                Some((_, sum)) => {
                    sum.cpu_ms += stat.cpu_ms;
                    sum.hwm_kb += stat.hwm_kb;
                }
                None => out.push((role, stat)),
            }
        }
        out
    }

    fn stat(&self, pid: u32) -> ProcStat {
        let cpu_ms = stat_fields(pid)
            .map(|f| {
                // utime and stime: fields 14 and 15 of /proc/<pid>/stat,
                // 11 and 12 once pid and comm are split off.
                let ticks: u64 = [11, 12]
                    .iter()
                    .filter_map(|&i| f.get(i).and_then(|v| v.parse::<u64>().ok()))
                    .sum();
                ticks as f64 * 1000.0 / self.clk_tck
            })
            .unwrap_or(0.0);
        let hwm_kb = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0);
        ProcStat { cpu_ms, hwm_kb }
    }
}

/// Host CPU time the hypervisor stole and the host's total, in ticks
/// (`steal` and the sum of the first eight fields of `/proc/stat`'s
/// `cpu` line).  Stolen time slows every wall-clock metric.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `/proc/<pid>/stat` after the `(comm)` field, split on whitespace.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// The `process_labels()` label of an `xrd-netd` daemon, rebuilt from
/// its command line: `mix --config .../chain-C-hop-H.cfg` or
/// `mailbox --shard S`.
fn daemon_label(pid: u32) -> Option<String> {
    let raw = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
    let args: Vec<String> = raw
        .split(|&b| b == 0)
        .map(|a| String::from_utf8_lossy(a).into_owned())
        .collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    match args.get(1).map(String::as_str) {
        Some("mix") => {
            let config = flag("--config")?;
            let stem = std::path::Path::new(config).file_stem()?.to_str()?;
            let (chain, hop) = stem.strip_prefix("chain-")?.split_once("-hop-")?;
            Some(format!("mix chain={chain} hop={hop}"))
        }
        Some("mailbox") => Some(format!("mailbox shard={}", flag("--shard")?)),
        _ => None,
    }
}
