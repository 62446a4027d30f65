//! Spans recorded from outside the program, around each public layer
//! call. Layer calls never nest, so a layer span's duration is its self
//! time; its parent is the span of the module or request it served.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::report::median;

/// One timed call.
pub struct Span {
    /// Layer name (`x86.lift`, `manta.fs`, ...) or `module` / `request`
    /// for the root span of one unit of work.
    pub name: &'static str,
    /// Pass (batch) or round (serve) the span belongs to.
    pub pass: u32,
    /// Module index (batch) or schedule position (serve).
    pub id: u32,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; 0 while the span is open.
    pub end_ns: u64,
    /// How far live heap rose above its level at the span's start.
    pub peak_heap: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span recorder owned by one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pass: u32,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the pass that spans opened from now on belong to.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens the root span of one module or request.
    pub fn open(&mut self, name: &'static str, id: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            id,
            parent: None,
            start_ns,
            end_ns: 0,
            peak_heap: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` as one call of `layer` under `parent`.
    pub fn layer<R>(&mut self, parent: usize, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let base = alloc::mark();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let (pass, id) = (self.spans[parent].pass, self.spans[parent].id);
        self.spans.push(Span {
            name: layer,
            pass,
            id,
            parent: Some(parent),
            start_ns,
            end_ns,
            peak_heap: alloc::peak_since(base),
        });
        out
    }

    /// Records an already-timed span (a client call timed on its own
    /// thread, whose heap peak is taken over the whole round instead)
    /// and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u32,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            pass: self.pass,
            id,
            parent,
            start_ns: at(start),
            end_ns: at(end),
            peak_heap: 0,
        });
        self.spans.len() - 1
    }

    /// Moves `other`'s spans into this recorder, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: the median over passes of the layer's busy time in one
    /// pass, and the largest heap rise of any one call. Root spans are
    /// not layers and are skipped.
    pub fn layers(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut per_pass: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut peak: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            *per_pass
                .entry(s.name)
                .or_default()
                .entry(s.pass)
                .or_default() += s.ms();
            let p = peak.entry(s.name).or_default();
            *p = (*p).max(s.peak_heap);
        }
        per_pass
            .into_iter()
            .map(|(name, passes)| {
                let mut ms: Vec<f64> = passes.into_values().collect();
                (name, (median(&mut ms), peak[name]))
            })
            .collect()
    }

    /// Per pass: the summed duration of every layer span in that pass.
    pub fn pass_ms(&self) -> Vec<f64> {
        let mut per_pass: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            *per_pass.entry(s.pass).or_default() += s.ms();
        }
        per_pass.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"pass\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"peak_heap\":{}}}",
                s.name, s.pass, s.id, parent, s.start_ns, s.end_ns, s.peak_heap
            )?;
        }
        out.flush()
    }
}
