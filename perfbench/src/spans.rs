//! In-memory spans for the traced run, written out when the run ends.
//!
//! The benchmark times its own calls into each crate, so a span's name
//! is the layer it entered (`data.load_csv`, `mapreduce.mr_kcenter`,
//! `exec.round1`, …). Spans whose interval is placed from durations the
//! library reports (round times, worker walls) are marked `derived`: their
//! lengths are measured, their start is the parent's start or the end of
//! the previous round.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::{Ctx, Outcome, Workload};

/// One closed span; times are offsets from the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request or invocation.
    pub trace: u64,
    /// Layer and operation, dotted.
    pub name: String,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Placed from a reported duration rather than timed directly.
    pub derived: bool,
}

impl Span {
    /// `end − start`.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose offsets count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Records a span timed by the caller; returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.push(trace, name, parent, start, end, false)
    }

    /// Records a span of measured length `dur` placed at `start`.
    pub fn derived(
        &mut self,
        trace: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        self.push(trace, name, parent, start, start + dur, true)
    }

    fn push(
        &mut self,
        trace: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        derived: bool,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start: self.offset(start),
            end: self.offset(end),
            derived,
        });
        id
    }

    /// Times `f` as a span; returns its value and the span id.
    pub fn time<T>(
        &mut self,
        trace: u64,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let id = self.record(trace, name, parent, start, Instant::now());
        (value, id)
    }

    /// Reserves a parent span that is closed later with [`Tracer::close`].
    pub fn open(&mut self, trace: u64, name: &str, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(trace, name, parent, now, now)
    }

    /// Ends a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        let end = self.offset(Instant::now());
        self.spans[id as usize - 1].end = end;
    }

    /// Start instant of a span (for placing derived children).
    pub fn start_of(&self, id: u64) -> Instant {
        self.epoch + self.spans[id as usize - 1].start
    }

    /// The span with this id.
    pub fn get(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Self time: the span's length minus the part of it its children
    /// cover (overlapping children count once).
    pub fn self_time(&self, id: u64) -> Duration {
        let span = self.get(id);
        let mut kids: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur().saturating_sub(covered)
    }

    /// Checks that every parent resolves to an earlier span of the same
    /// trace and that every child lies inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            let Some(pid) = s.parent else { continue };
            if pid == 0 || pid >= s.id {
                return Err(format!(
                    "span {} ({}) has unresolved parent {pid}",
                    s.id, s.name
                ));
            }
            let p = self.get(pid);
            if p.trace != s.trace {
                return Err(format!("span {} ({}) crosses traces", s.id, s.name));
            }
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "span {} ({}) [{:?}, {:?}] outside parent {} ({}) [{:?}, {:?}]",
                    s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end
                ));
            }
        }
        Ok(())
    }

    /// Writes one JSON object per span, then one per counter delta.
    pub fn write_jsonl(&self, path: &Path, counters: &[(String, u64)]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"type\":\"span\",\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"self_us\":{},\"derived\":{}}}",
                s.trace,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                kcenter_obs::json::escape(&s.name),
                s.start.as_micros(),
                s.dur().as_micros(),
                self.self_time(s.id).as_micros(),
                s.derived
            )?;
        }
        for (name, delta) in counters {
            writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
                kcenter_obs::json::escape(name)
            )?;
        }
        out.flush()
    }
}

/// Deltas of the process-wide counters between two
/// `kcenter_obs::counter_values()` snapshots (counters that moved only).
pub fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(name, v)| {
            let old = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v);
            (*v > old).then(|| (name.clone(), v - old))
        })
        .collect()
}

/// The delta of one counter, 0 when it did not move.
pub fn delta_of(deltas: &[(String, u64)], name: &str) -> u64 {
    deltas
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Checks span nesting and writes the spans and counter deltas to
/// `<out>/<workload>-seed<N>-spans.jsonl`.
pub fn finish_trace(
    ctx: &Ctx,
    workload: Workload,
    tracer: &Tracer,
    deltas: &[(String, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let nesting = tracer.check_nesting();
    out.check(nesting.is_ok(), || {
        format!("spans do not nest: {nesting:?}")
    });
    let path = ctx
        .out_dir
        .join(format!("{}-seed{}-spans.jsonl", workload.name(), ctx.seed));
    tracer
        .write_jsonl(&path, deltas)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.provenance(
        "spans_file",
        format!("\"{}\"", kcenter_obs::json::escape(&path.to_string_lossy())),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new();
        let s = t.epoch;
        let ms = Duration::from_millis;
        let root = t.record(1, "root", None, s, s + ms(100));
        t.record(1, "a", Some(root), s + ms(10), s + ms(50));
        t.record(1, "b", Some(root), s + ms(40), s + ms(60));
        assert_eq!(t.self_time(root), ms(50));
        assert!(t.check_nesting().is_ok());
        t.record(1, "stray", Some(root), s + ms(90), s + ms(120));
        assert!(t.check_nesting().is_err());
    }
}
