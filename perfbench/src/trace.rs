//! The traced run's span tree: the benchmark's own spans around every
//! call it makes (launch, connect, each `run_round`, each seal probe and
//! each scrape), with the coordinator's `round.*` and `coord.*` spans
//! read out of the process-wide `xrd-obs` ring after every round and
//! hung under that round's `run_round` span.
//!
//! All timestamps use the registry's clock (µs since it started), so
//! the benchmark's spans and the coordinator's line up.  Spans stay in
//! memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;

use xrd_obs::SpanEvent;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub round: Option<u64>,
    pub start_us: u64,
    pub end_us: u64,
}

#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    /// The coordinator ring's `recorded()` count at the last drain.
    seen: u64,
    /// Coordinator spans the ring evicted before a drain reached them.
    pub lost: u64,
}

fn now_us() -> u64 {
    xrd_obs::global().uptime_us()
}

impl Tracer {
    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        round: Option<u64>,
    ) -> usize {
        let now = now_us();
        self.spans.push(Span {
            name: name.into(),
            parent,
            round,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = now_us();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        round: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, round);
        let out = f();
        self.close(id);
        out
    }

    /// Everything the coordinator recorded since the last drain.  The
    /// ring keeps the latest 1024 spans, so draining after every round
    /// loses none; if it ever did, the shortfall is counted in `lost`.
    pub fn drain_coordinator(&mut self) -> Vec<SpanEvent> {
        let ring = xrd_obs::global().spans();
        let retained = ring.snapshot();
        let recorded = ring.recorded();
        let fresh = (recorded - self.seen) as usize;
        self.seen = recorded;
        if fresh > retained.len() {
            self.lost += (fresh - retained.len()) as u64;
        }
        retained[retained.len().saturating_sub(fresh)..].to_vec()
    }

    /// Hang a round's coordinator spans under its `run_round` span: each
    /// `round.*` phase directly, each `coord.*` span under the phase
    /// that contains its start.
    pub fn adopt(&mut self, run_round: usize, events: &[SpanEvent]) {
        let mut phases: Vec<usize> = Vec::new();
        for ev in events.iter().filter(|e| e.name.starts_with("round.")) {
            phases.push(self.spans.len());
            self.push_event(ev, run_round);
        }
        for ev in events.iter().filter(|e| !e.name.starts_with("round.")) {
            let parent = phases
                .iter()
                .copied()
                .find(|&p| {
                    let s = &self.spans[p];
                    s.start_us <= ev.start_us && ev.start_us <= s.end_us
                })
                .unwrap_or(run_round);
            self.push_event(ev, parent);
        }
    }

    fn push_event(&mut self, ev: &SpanEvent, parent: usize) {
        self.spans.push(Span {
            name: ev.name.clone(),
            parent: Some(parent),
            round: Some(ev.round),
            start_us: ev.start_us,
            end_us: ev.start_us + ev.dur_us,
        });
    }

    /// Write the tree as JSON lines: a header, then one span per line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"round\":{round},\
                 \"start_us\":{},\"end_us\":{}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
