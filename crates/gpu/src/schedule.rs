//! Executable schedules: ordered command lists over multiple streams.
//!
//! A [`Schedule`] is what a dispatcher (native, XLA-like, or Astra's custom
//! wirer) hands to the [`Engine`](crate::engine::Engine): a sequence of
//! asynchronous kernel launches on numbered streams, cudaEvent-style records
//! and waits, device-wide barriers (super-epoch boundaries), and synchronous
//! host syncs.
//!
//! Schedules also carry three pieces of tooling-facing metadata that never
//! show up in [`Schedule::render`] (golden traces stay byte-stable):
//!
//! * a table of pre-interned span labels (`Arc<str>`, one per launch), so the
//!   engine never allocates a `String` per executed kernel — dispatchers
//!   that launch the same kernel repeatedly can hand in a label interned
//!   once ([`Schedule::launch_interned`]);
//! * optional *segment boundaries* ([`Schedule::mark_boundary`]) with a
//!   rolling prefix hash per boundary, the anchor points for incremental
//!   simulation: two schedules whose boundary hashes match share the exact
//!   command prefix (modulo 64-bit collision), so an
//!   [`EngineCheckpoint`](crate::engine::EngineCheckpoint) captured on one
//!   can seed the other. The hash is a structural fold over every field of
//!   every command (see [`Schedule::prefix_hash`]) — never a `Debug`
//!   rendering — so cache keys built on it are stable across toolchains;
//! * optional per-command *tags* ([`Schedule::set_tag`]) linking a command
//!   back to whatever emitted it (the wirer tags launches with the unit
//!   index), which is how the static verifier resolves buffer footprints.

use std::sync::Arc;

use crate::kernel::KernelDesc;

/// Identifier of a GPU stream within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Identifier of a cudaEvent-style event within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// One dispatcher command.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// Asynchronously launch `kernel` on `stream`, after all `waits` events
    /// have fired.
    Launch {
        /// Target stream.
        stream: StreamId,
        /// The kernel to run.
        kernel: KernelDesc,
        /// Events that must fire before the kernel may start.
        waits: Vec<EventId>,
        /// Optional label used in span reports and profiling.
        label: Option<String>,
    },
    /// Record `event` on `stream` once all prior work in the stream is done.
    Record {
        /// Stream whose completion the event captures.
        stream: StreamId,
        /// The event to record.
        event: EventId,
    },
    /// Device-wide barrier: no stream proceeds past it until every stream
    /// has drained to it (super-epoch boundary, paper §4.5.3).
    Barrier,
    /// The CPU blocks until the device is idle, then pays a host round trip.
    HostSync,
    /// Cross-device copy of `bytes` from device `src` to device `dst`,
    /// issued on `stream` (which must live on `dst` — the transfer lands the
    /// data where its consumer runs). Occupies the stream for the link
    /// latency plus the bandwidth time, contending with other transfers on
    /// the same link.
    Transfer {
        /// Stream the transfer occupies (on the destination device).
        stream: StreamId,
        /// Payload size in bytes.
        bytes: u64,
        /// Source device index.
        src: usize,
        /// Destination device index.
        dst: usize,
        /// Events that must fire before the copy may start (normally the
        /// producer's done-event on the source device).
        waits: Vec<EventId>,
    },
    /// Ring all-reduce rendezvous: every stream issuing an `AllReduce` with
    /// the same `group` id blocks until all participants arrive, then all
    /// pay the ring cost of `bytes` over the topology link together.
    AllReduce {
        /// Participating stream.
        stream: StreamId,
        /// Per-participant payload in bytes (gradient size).
        bytes: u64,
        /// Rendezvous group id; participant count is the number of
        /// `AllReduce` commands sharing it.
        group: u32,
    },
}

/// An ordered multi-stream command list, plus the number of streams it uses.
///
/// # Examples
///
/// ```
/// use astra_gpu::{KernelDesc, Schedule, StreamId};
///
/// let mut s = Schedule::new(2);
/// s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
/// let ev = s.record(StreamId(0));
/// s.launch_after(StreamId(1), KernelDesc::MemCopy { bytes: 1024.0 }, vec![ev]);
/// assert_eq!(s.cmds().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    num_streams: usize,
    cmds: Vec<Cmd>,
    next_event: u32,
    num_launches: usize,
    // Queue items each stream will receive (launches + records + barriers),
    // maintained incrementally so the engine can pre-size its FIFOs.
    stream_cmds: Vec<usize>,
    // Rolling structural hash of every command appended so far (kernel
    // descriptor fields, streams, waits, events, labels; see `hash_cmd`).
    // Folded left-to-right, so equal hashes mean equal command prefixes
    // (modulo 64-bit collisions).
    prefix_hash: u64,
    // (command index, prefix hash at that index) for each marked boundary,
    // strictly increasing in the index.
    boundaries: Vec<(usize, u64)>,
    // Interned span label per command: `Some` for launches (the explicit
    // label or the kernel's default), `None` otherwise.
    span_labels: Vec<Option<Arc<str>>>,
    // Emitter tag per command (e.g. the wirer's unit index). Pure metadata:
    // excluded from render() and from the prefix hash, like span labels.
    tags: Vec<Option<u32>>,
    // Device index each stream dispatches onto. All zeros for single-device
    // schedules (the default), in which case it is invisible to render()
    // and the prefix hash — existing golden traces stay byte-stable.
    device_of: Vec<usize>,
    // Expected participant count per all-reduce rendezvous group.
    allreduce_expect: Vec<(u32, usize)>,
}

/// One splitmix64-style fold step for the rolling prefix hash.
pub(crate) fn fold_hash(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; feeds [`fold_hash`] with string content
/// (launch labels, device and link names).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds `vals` into `h`, in order.
fn fold_all(h: u64, vals: &[u64]) -> u64 {
    vals.iter().fold(h, |h, &v| fold_hash(h, v))
}

/// Folds a wait list into `h`: its length, then every event id in order, so
/// `[e1, e2]`, `[e2, e1]` and `[e1, e1]` all hash apart.
fn hash_waits(h: u64, waits: &[EventId]) -> u64 {
    waits.iter().fold(fold_hash(h, waits.len() as u64), |h, e| fold_hash(h, u64::from(e.0)))
}

/// Folds a kernel descriptor into `h`: a per-variant discriminant, then
/// every field (floats as their IEEE bit patterns, so `0.0` and `-0.0`
/// differ; the GEMM library as its discriminant). The patterns name every
/// field, so a field added to [`KernelDesc`] fails to compile here until it
/// is hashed.
fn hash_kernel(h: u64, kernel: &KernelDesc) -> u64 {
    match *kernel {
        KernelDesc::Gemm { shape, lib } => {
            fold_all(h, &[0, shape.m, shape.k, shape.n, lib as u64])
        }
        KernelDesc::Elementwise { elements, flops_per_element, inputs, outputs } => fold_all(
            h,
            &[1, elements, flops_per_element.to_bits(), u64::from(inputs), u64::from(outputs)],
        ),
        KernelDesc::Softmax { rows, cols } => fold_all(h, &[2, rows, cols]),
        KernelDesc::EmbeddingLookup { rows, width } => fold_all(h, &[3, rows, width]),
        KernelDesc::Compound { flops, bytes } => fold_all(h, &[4, flops.to_bits(), bytes.to_bits()]),
        KernelDesc::MemCopy { bytes } => fold_all(h, &[5, bytes.to_bits()]),
        KernelDesc::HostRoundtrip { bytes } => fold_all(h, &[6, bytes.to_bits()]),
        KernelDesc::Conv { batch, gemm_m, gemm_k, gemm_n } => {
            fold_all(h, &[7, batch, gemm_m, gemm_k, gemm_n])
        }
    }
}

/// Folds one command into `h`, field by field: a variant discriminant, the
/// stream, the kernel descriptor, the length-prefixed wait list, event ids,
/// transfer/all-reduce payloads and endpoints, and the explicit launch label
/// (a presence tag, then the FNV-1a of its bytes). Like [`hash_kernel`],
/// every pattern names every field.
fn hash_cmd(h: u64, cmd: &Cmd) -> u64 {
    match cmd {
        Cmd::Launch { stream, kernel, waits, label } => {
            let h = hash_kernel(fold_all(h, &[0, stream.0 as u64]), kernel);
            let h = hash_waits(h, waits);
            match label {
                Some(l) => fold_all(h, &[1, fnv1a(l.as_bytes())]),
                None => fold_hash(h, 0),
            }
        }
        Cmd::Record { stream, event } => fold_all(h, &[1, stream.0 as u64, u64::from(event.0)]),
        Cmd::Barrier => fold_hash(h, 2),
        Cmd::HostSync => fold_hash(h, 3),
        Cmd::Transfer { stream, bytes, src, dst, waits } => {
            hash_waits(fold_all(h, &[4, stream.0 as u64, *bytes, *src as u64, *dst as u64]), waits)
        }
        Cmd::AllReduce { stream, bytes, group } => {
            fold_all(h, &[5, stream.0 as u64, *bytes, u64::from(*group)])
        }
    }
}

impl Schedule {
    /// Creates an empty schedule over `num_streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `num_streams` is zero.
    pub fn new(num_streams: usize) -> Self {
        assert!(num_streams > 0, "a schedule needs at least one stream");
        Schedule {
            num_streams,
            cmds: Vec::new(),
            next_event: 0,
            num_launches: 0,
            stream_cmds: vec![0; num_streams],
            // Seed with the stream count: the same command list over a
            // different stream topology is a different schedule.
            prefix_hash: fold_hash(0x4153_5452, num_streams as u64),
            boundaries: Vec::new(),
            span_labels: Vec::new(),
            tags: Vec::new(),
            device_of: vec![0; num_streams],
            allreduce_expect: Vec::new(),
        }
    }

    /// Creates an empty schedule whose streams are placed on explicit
    /// devices: stream `i` dispatches onto device `device_of[i]`. The
    /// mapping participates in the prefix hash (the same command list over a
    /// different placement is a different schedule), *unless* every stream
    /// sits on device 0, in which case this is exactly [`Schedule::new`].
    ///
    /// # Panics
    ///
    /// Panics if `device_of.len() != num_streams` or `num_streams == 0`.
    pub fn with_devices(num_streams: usize, device_of: Vec<usize>) -> Self {
        assert_eq!(
            device_of.len(),
            num_streams,
            "device map must cover every stream"
        );
        let mut s = Schedule::new(num_streams);
        if device_of.iter().any(|&d| d != 0) {
            for &d in &device_of {
                s.prefix_hash = fold_hash(s.prefix_hash, d as u64 + 1);
            }
            s.device_of = device_of;
        }
        s
    }

    /// Number of streams the schedule dispatches onto.
    pub fn num_streams(&self) -> usize {
        self.num_streams
    }

    /// Device index each stream dispatches onto (all zeros for
    /// single-device schedules).
    pub fn stream_devices(&self) -> &[usize] {
        &self.device_of
    }

    /// Device index of one stream.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn stream_device(&self, stream: StreamId) -> usize {
        self.device_of[stream.0]
    }

    /// Whether any stream is placed on a device other than 0.
    pub fn is_multi_device(&self) -> bool {
        self.device_of.iter().any(|&d| d != 0)
    }

    /// Number of devices the schedule spans (`max(device) + 1`).
    pub fn num_devices(&self) -> usize {
        self.device_of.iter().copied().max().unwrap_or(0) + 1
    }

    /// Every all-reduce group in the schedule with its participant count,
    /// in first-appearance order.
    pub fn allreduce_groups(&self) -> &[(u32, usize)] {
        &self.allreduce_expect
    }

    /// Expected participant count of all-reduce `group` (the number of
    /// [`Cmd::AllReduce`] commands appended with that group id).
    pub fn allreduce_expect(&self, group: u32) -> usize {
        self.allreduce_expect
            .iter()
            .find(|&&(g, _)| g == group)
            .map_or(0, |&(_, n)| n)
    }

    /// The commands, in dispatch order.
    pub fn cmds(&self) -> &[Cmd] {
        &self.cmds
    }

    /// Number of kernel launches in the schedule.
    pub fn num_launches(&self) -> usize {
        self.num_launches
    }

    /// Per-stream count of queue items (launches, records, and barriers) —
    /// the capacity each stream's FIFO needs during execution.
    pub fn stream_cmd_counts(&self) -> &[usize] {
        &self.stream_cmds
    }

    /// Rolling content hash of the full command list appended so far.
    ///
    /// Equal hashes on two schedules mean (modulo 64-bit collision) the two
    /// command lists are identical — commands, kernels, waits, labels, and
    /// stream count all participate. Each command is folded structurally,
    /// field by field (floats by bit pattern, sequences length-prefixed,
    /// labels by their bytes), so the value depends on nothing but the
    /// commands: not on `Debug` formatting, and not on the toolchain.
    /// Persisted simulation memos are keyed on it, so changing the fold
    /// invalidates them (the store's memo record version must be bumped).
    pub fn prefix_hash(&self) -> u64 {
        self.prefix_hash
    }

    /// Marks the current position as a segment boundary. The engine may
    /// capture an [`EngineCheckpoint`](crate::engine::EngineCheckpoint) at a
    /// boundary, and may resume from a checkpoint whose `(index, hash)` pair
    /// matches one. Consecutive marks at the same position collapse to one.
    pub fn mark_boundary(&mut self) {
        let at = self.cmds.len();
        if self.boundaries.last().is_some_and(|&(i, _)| i == at) {
            return;
        }
        self.boundaries.push((at, self.prefix_hash));
    }

    /// The marked boundaries as `(command index, prefix hash)` pairs, in
    /// increasing index order. A boundary at `cmds().len()` covers the whole
    /// schedule (a checkpoint there memoizes the complete run).
    pub fn boundaries(&self) -> &[(usize, u64)] {
        &self.boundaries
    }

    /// The prefix hash at a marked boundary, or `None` if `cmd_idx` is not a
    /// boundary.
    pub fn boundary_hash(&self, cmd_idx: usize) -> Option<u64> {
        self.boundaries
            .binary_search_by_key(&cmd_idx, |&(i, _)| i)
            .ok()
            .map(|pos| self.boundaries[pos].1)
    }

    /// Interned span label per command: `Some` for launches (the explicit
    /// label or the kernel's default, resolved once at build time), `None`
    /// for records, barriers, and host syncs.
    pub fn span_labels(&self) -> &[Option<Arc<str>>] {
        &self.span_labels
    }

    /// Emitter tag per command (`None` where nothing was tagged). Tags are
    /// tooling metadata: invisible to [`Schedule::render`] and the prefix
    /// hash, so tagging never perturbs golden traces or sim-cache keys.
    pub fn tags(&self) -> &[Option<u32>] {
        &self.tags
    }

    /// Tags command `cmd_idx` with an emitter-defined value (the custom
    /// wirer stores the unit index so the verifier can resolve footprints).
    ///
    /// # Panics
    ///
    /// Panics if `cmd_idx` is out of range.
    pub fn set_tag(&mut self, cmd_idx: usize, tag: u32) {
        self.tags[cmd_idx] = Some(tag);
    }

    /// Folds the just-pushed command into the rolling prefix hash,
    /// structurally: every field of the command participates (see
    /// `hash_cmd`), with no intermediate rendering or allocation.
    fn absorb_last(&mut self) {
        let cmd = self.cmds.last().expect("called right after a push");
        self.prefix_hash = hash_cmd(self.prefix_hash, cmd);
    }

    /// Appends an unlabelled launch with no waits. Returns the command index.
    pub fn launch(&mut self, stream: StreamId, kernel: KernelDesc) -> usize {
        self.launch_after(stream, kernel, Vec::new())
    }

    /// Appends a launch gated on `waits`. Returns the command index.
    pub fn launch_after(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: Vec<EventId>,
    ) -> usize {
        let span = Arc::from(kernel.label());
        self.push_launch(stream, kernel, waits, None, span)
    }

    /// Like [`Schedule::launch_after`], but with the kernel's default span
    /// label already interned by the caller, so a dispatcher that launches
    /// the same kernel in many schedules formats its label once instead of
    /// once per launch. The command, its rendering, and the prefix hash are
    /// exactly those of `launch_after`. Returns the command index.
    ///
    /// `span_label` must equal `kernel.label()` (checked in debug builds).
    pub fn launch_interned(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: Vec<EventId>,
        span_label: Arc<str>,
    ) -> usize {
        debug_assert_eq!(*span_label, *kernel.label(), "stale interned label");
        self.push_launch(stream, kernel, waits, None, span_label)
    }

    /// Appends a labelled launch gated on `waits`. Returns the command index.
    pub fn launch_labeled(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: Vec<EventId>,
        label: impl Into<String>,
    ) -> usize {
        let label = label.into();
        let span = Arc::from(label.as_str());
        self.push_launch(stream, kernel, waits, Some(label), span)
    }

    fn push_launch(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: Vec<EventId>,
        label: Option<String>,
        span: Arc<str>,
    ) -> usize {
        self.check_stream(stream);
        self.num_launches += 1;
        self.stream_cmds[stream.0] += 1;
        self.span_labels.push(Some(span));
        self.tags.push(None);
        self.cmds.push(Cmd::Launch { stream, kernel, waits, label });
        self.absorb_last();
        self.cmds.len() - 1
    }

    /// Records a fresh event on `stream` and returns its id.
    pub fn record(&mut self, stream: StreamId) -> EventId {
        self.check_stream(stream);
        let ev = EventId(self.next_event);
        self.next_event += 1;
        self.stream_cmds[stream.0] += 1;
        self.span_labels.push(None);
        self.tags.push(None);
        self.cmds.push(Cmd::Record { stream, event: ev });
        self.absorb_last();
        ev
    }

    /// Appends a device-wide barrier (super-epoch boundary).
    pub fn barrier(&mut self) {
        for c in &mut self.stream_cmds {
            *c += 1;
        }
        self.span_labels.push(None);
        self.tags.push(None);
        self.cmds.push(Cmd::Barrier);
        self.absorb_last();
    }

    /// Appends a blocking host synchronization.
    pub fn host_sync(&mut self) {
        self.span_labels.push(None);
        self.tags.push(None);
        self.cmds.push(Cmd::HostSync);
        self.absorb_last();
    }

    /// Appends a cross-device transfer of `bytes` from device `src` to
    /// device `dst`, issued on `stream` and gated on `waits`. Returns the
    /// command index.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range, if `src == dst`, or if `stream`
    /// does not live on `dst` (transfers land data where the consumer runs).
    pub fn transfer(
        &mut self,
        stream: StreamId,
        bytes: u64,
        src: usize,
        dst: usize,
        waits: Vec<EventId>,
    ) -> usize {
        self.check_stream(stream);
        assert_ne!(src, dst, "a transfer must cross devices");
        assert_eq!(
            self.device_of[stream.0], dst,
            "transfer stream must live on the destination device"
        );
        self.stream_cmds[stream.0] += 1;
        self.span_labels.push(Some(Arc::from(
            format!("xfer[{:.1}KB d{src}->d{dst}]", bytes as f64 / 1e3).as_str(),
        )));
        self.tags.push(None);
        self.cmds.push(Cmd::Transfer { stream, bytes, src, dst, waits });
        self.absorb_last();
        self.cmds.len() - 1
    }

    /// Appends an all-reduce rendezvous participant on `stream` for `group`.
    /// Returns the command index.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn all_reduce(&mut self, stream: StreamId, bytes: u64, group: u32) -> usize {
        self.check_stream(stream);
        self.stream_cmds[stream.0] += 1;
        self.span_labels.push(Some(Arc::from(
            format!("allreduce[{:.1}KB g{group}]", bytes as f64 / 1e3).as_str(),
        )));
        self.tags.push(None);
        match self.allreduce_expect.iter_mut().find(|(g, _)| *g == group) {
            Some((_, n)) => *n += 1,
            None => self.allreduce_expect.push((group, 1)),
        }
        self.cmds.push(Cmd::AllReduce { stream, bytes, group });
        self.absorb_last();
        self.cmds.len() - 1
    }

    /// Renders the schedule as stable, line-oriented text: one command per
    /// line, in dispatch order, with kernel labels, stream bindings, and
    /// event wiring spelled out. Golden-trace tests snapshot this exact
    /// format, so treat any change to it as a schedule-visible change.
    ///
    /// ```text
    /// streams 2
    /// launch s0 gemm[16x64x64]@cublas
    /// record s0 -> e0
    /// launch s1 waits[e0] gemm[16x64x64]@cublas
    /// barrier
    /// hostsync
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "streams {}", self.num_streams);
        if self.is_multi_device() {
            let devs: Vec<String> = self.device_of.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "devices {}", devs.join(","));
        }
        let fmt_waits = |out: &mut String, waits: &[EventId]| {
            use std::fmt::Write as _;
            if !waits.is_empty() {
                let _ = write!(out, " waits[");
                for (i, w) in waits.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(out, "{sep}e{}", w.0);
                }
                let _ = write!(out, "]");
            }
        };
        for cmd in &self.cmds {
            match cmd {
                Cmd::Launch { stream, kernel, waits, label } => {
                    let _ = write!(out, "launch s{}", stream.0);
                    fmt_waits(&mut out, waits);
                    let name = label.clone().unwrap_or_else(|| kernel.label());
                    let _ = writeln!(out, " {name}");
                }
                Cmd::Record { stream, event } => {
                    let _ = writeln!(out, "record s{} -> e{}", stream.0, event.0);
                }
                Cmd::Barrier => out.push_str("barrier\n"),
                Cmd::HostSync => out.push_str("hostsync\n"),
                Cmd::Transfer { stream, bytes, src, dst, waits } => {
                    let _ = write!(out, "transfer s{}", stream.0);
                    fmt_waits(&mut out, waits);
                    let _ = writeln!(out, " {bytes}B d{src}->d{dst}");
                }
                Cmd::AllReduce { stream, bytes, group } => {
                    let _ = writeln!(out, "allreduce s{} {bytes}B g{group}", stream.0);
                }
            }
        }
        out
    }

    fn check_stream(&self, stream: StreamId) {
        assert!(
            stream.0 < self.num_streams,
            "stream {} out of range (schedule has {})",
            stream.0,
            self.num_streams
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ids_are_unique() {
        let mut s = Schedule::new(2);
        let a = s.record(StreamId(0));
        let b = s.record(StreamId(1));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn launch_on_bad_stream_panics() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 });
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _ = Schedule::new(0);
    }

    #[test]
    fn render_spells_out_streams_waits_and_labels() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
        let ev = s.record(StreamId(0));
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 }, vec![ev], "mine");
        s.barrier();
        s.host_sync();
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "streams 2");
        assert!(lines[1].starts_with("launch s0 "));
        assert_eq!(lines[2], "record s0 -> e0");
        assert_eq!(lines[3], "launch s1 waits[e0] mine");
        assert_eq!(lines[4], "barrier");
        assert_eq!(lines[5], "hostsync");
    }

    #[test]
    fn launch_counting() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1.0 });
        s.record(StreamId(0));
        s.barrier();
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1.0 });
        assert_eq!(s.num_launches(), 2);
        assert_eq!(s.cmds().len(), 4);
    }

    #[test]
    fn prefix_hash_tracks_content() {
        let mut a = Schedule::new(1);
        let mut b = Schedule::new(1);
        assert_eq!(a.prefix_hash(), b.prefix_hash());
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        b.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        assert_eq!(a.prefix_hash(), b.prefix_hash(), "identical prefixes hash equal");
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        b.launch(StreamId(0), KernelDesc::MemCopy { bytes: 9.0 });
        assert_ne!(a.prefix_hash(), b.prefix_hash(), "kernel content must show up");
        // Stream count participates even with identical commands.
        let one = Schedule::new(1);
        let two = Schedule::new(2);
        assert_ne!(one.prefix_hash(), two.prefix_hash());
    }

    #[test]
    fn boundaries_record_position_and_hash() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        s.mark_boundary();
        s.mark_boundary(); // dedupes
        let h1 = s.prefix_hash();
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 16.0 });
        s.mark_boundary();
        assert_eq!(s.boundaries(), &[(1, h1), (2, s.prefix_hash())]);
        assert_eq!(s.boundary_hash(1), Some(h1));
        assert_eq!(s.boundary_hash(0), None);
    }

    #[test]
    fn span_labels_are_interned_per_launch() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        s.record(StreamId(0));
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 8.0 }, Vec::new(), "mine");
        let labels = s.span_labels();
        assert_eq!(labels.len(), s.cmds().len());
        assert_eq!(labels[0].as_deref(), Some(KernelDesc::MemCopy { bytes: 8.0 }.label().as_str()));
        assert!(labels[1].is_none());
        assert_eq!(labels[2].as_deref(), Some("mine"));
    }

    #[test]
    fn tags_are_metadata_only() {
        let mut a = Schedule::new(1);
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        a.record(StreamId(0));
        let mut b = a.clone();
        b.set_tag(0, 7);
        assert_eq!(a.render(), b.render(), "tags are invisible to render");
        assert_eq!(a.prefix_hash(), b.prefix_hash(), "tags are invisible to the hash");
        assert_eq!(b.tags(), &[Some(7), None]);
        assert_eq!(a.tags(), &[None, None]);
    }

    #[test]
    fn device_map_participates_in_hash_but_zeros_are_invisible() {
        let plain = Schedule::new(2);
        let zeros = Schedule::with_devices(2, vec![0, 0]);
        assert_eq!(plain.prefix_hash(), zeros.prefix_hash());
        assert_eq!(plain.render(), zeros.render());
        assert!(!zeros.is_multi_device());
        let multi = Schedule::with_devices(2, vec![0, 1]);
        assert_ne!(plain.prefix_hash(), multi.prefix_hash());
        let other = Schedule::with_devices(2, vec![1, 0]);
        assert_ne!(multi.prefix_hash(), other.prefix_hash(), "mapping order matters");
        assert!(multi.is_multi_device());
        assert_eq!(multi.num_devices(), 2);
        assert_eq!(multi.stream_device(StreamId(1)), 1);
        assert!(multi.render().lines().nth(1) == Some("devices 0,1"));
    }

    #[test]
    fn transfer_and_allreduce_render_and_count() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 64.0 });
        let ev = s.record(StreamId(0));
        s.transfer(StreamId(1), 4096, 0, 1, vec![ev]);
        s.all_reduce(StreamId(0), 1024, 0);
        s.all_reduce(StreamId(1), 1024, 0);
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[4], "transfer s1 waits[e0] 4096B d0->d1");
        assert_eq!(lines[5], "allreduce s0 1024B g0");
        assert_eq!(lines[6], "allreduce s1 1024B g0");
        assert_eq!(s.allreduce_expect(0), 2);
        assert_eq!(s.allreduce_expect(9), 0);
        // Transfers and all-reduces occupy their streams but are not kernel
        // launches.
        assert_eq!(s.num_launches(), 1);
        assert_eq!(s.stream_cmd_counts(), &[3, 2]);
        assert!(s.span_labels()[2].as_deref().unwrap().starts_with("xfer["));
        assert!(s.span_labels()[3].as_deref().unwrap().starts_with("allreduce["));
    }

    #[test]
    #[should_panic(expected = "destination device")]
    fn transfer_on_wrong_device_panics() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.transfer(StreamId(0), 64, 0, 1, Vec::new());
    }

    /// Prefix hash of a one-command schedule holding exactly `cmd` (pushed
    /// raw, so fields the builder API never varies — event ids — can too).
    fn hash_of(cmd: Cmd) -> u64 {
        let mut s = Schedule::new(2);
        s.cmds.push(cmd);
        s.absorb_last();
        s.prefix_hash()
    }

    /// Every kernel variant plus every single-field mutation of each,
    /// floats also flipped to `-0.0`.
    fn kernel_variants() -> Vec<KernelDesc> {
        use crate::gemm::{GemmLibrary, GemmShape};
        let g = |m, k, n, lib| KernelDesc::Gemm { shape: GemmShape { m, k, n }, lib };
        let ew = |elements, flops_per_element, inputs, outputs| KernelDesc::Elementwise {
            elements,
            flops_per_element,
            inputs,
            outputs,
        };
        let conv = |batch, gemm_m, gemm_k, gemm_n| KernelDesc::Conv { batch, gemm_m, gemm_k, gemm_n };
        vec![
            g(8, 16, 32, GemmLibrary::CublasLike),
            g(9, 16, 32, GemmLibrary::CublasLike),
            g(8, 17, 32, GemmLibrary::CublasLike),
            g(8, 16, 33, GemmLibrary::CublasLike),
            g(8, 16, 32, GemmLibrary::OaiWide),
            g(8, 16, 32, GemmLibrary::OaiTall),
            ew(64, 0.0, 1, 1),
            ew(65, 0.0, 1, 1),
            ew(64, -0.0, 1, 1),
            ew(64, 2.0, 1, 1),
            ew(64, 0.0, 2, 1),
            ew(64, 0.0, 1, 2),
            KernelDesc::Softmax { rows: 4, cols: 8 },
            KernelDesc::Softmax { rows: 5, cols: 8 },
            KernelDesc::Softmax { rows: 4, cols: 9 },
            KernelDesc::EmbeddingLookup { rows: 4, width: 8 },
            KernelDesc::EmbeddingLookup { rows: 5, width: 8 },
            KernelDesc::EmbeddingLookup { rows: 4, width: 9 },
            KernelDesc::Compound { flops: 0.0, bytes: 0.0 },
            KernelDesc::Compound { flops: -0.0, bytes: 0.0 },
            KernelDesc::Compound { flops: 0.0, bytes: -0.0 },
            KernelDesc::Compound { flops: 1.0, bytes: 0.0 },
            KernelDesc::MemCopy { bytes: 0.0 },
            KernelDesc::MemCopy { bytes: -0.0 },
            KernelDesc::MemCopy { bytes: 1.0 },
            KernelDesc::HostRoundtrip { bytes: 0.0 },
            KernelDesc::HostRoundtrip { bytes: -0.0 },
            KernelDesc::HostRoundtrip { bytes: 1.0 },
            conv(1, 2, 3, 4),
            conv(9, 2, 3, 4),
            conv(1, 9, 3, 4),
            conv(1, 2, 9, 4),
            conv(1, 2, 3, 9),
        ]
    }

    #[test]
    fn every_field_of_every_command_moves_the_prefix_hash() {
        let k = KernelDesc::MemCopy { bytes: 8.0 };
        let (e1, e2) = (EventId(1), EventId(2));
        let launch = |stream: usize, kernel, waits: Vec<EventId>, label: Option<&str>| {
            Cmd::Launch {
                stream: StreamId(stream),
                kernel,
                waits,
                label: label.map(str::to_owned),
            }
        };
        let transfer = |stream: usize, bytes, src, dst, waits| Cmd::Transfer {
            stream: StreamId(stream),
            bytes,
            src,
            dst,
            waits,
        };
        let mut cmds: Vec<Cmd> =
            kernel_variants().into_iter().map(|kv| launch(0, kv, Vec::new(), None)).collect();
        cmds.extend([
            launch(1, k, Vec::new(), None),
            launch(0, k, vec![e1], None),
            launch(0, k, vec![e1, e1], None),
            launch(0, k, vec![e1, e2], None),
            launch(0, k, vec![e2, e1], None),
            launch(0, k, Vec::new(), Some("x")),
            launch(0, k, Vec::new(), Some("y")),
            launch(0, k, Vec::new(), Some("")),
            Cmd::Record { stream: StreamId(0), event: e1 },
            Cmd::Record { stream: StreamId(1), event: e1 },
            Cmd::Record { stream: StreamId(0), event: e2 },
            Cmd::Barrier,
            Cmd::HostSync,
            transfer(0, 64, 0, 1, Vec::new()),
            transfer(1, 64, 0, 1, Vec::new()),
            transfer(0, 65, 0, 1, Vec::new()),
            transfer(0, 64, 2, 1, Vec::new()),
            transfer(0, 64, 0, 2, Vec::new()),
            transfer(0, 64, 0, 1, vec![e1]),
            transfer(0, 64, 0, 1, vec![e1, e1]),
            transfer(0, 64, 0, 1, vec![e1, e2]),
            transfer(0, 64, 0, 1, vec![e2, e1]),
            Cmd::AllReduce { stream: StreamId(0), bytes: 64, group: 0 },
            Cmd::AllReduce { stream: StreamId(1), bytes: 64, group: 0 },
            Cmd::AllReduce { stream: StreamId(0), bytes: 65, group: 0 },
            Cmd::AllReduce { stream: StreamId(0), bytes: 64, group: 1 },
        ]);
        // All pairwise distinct: in particular every single-field mutation
        // differs from its base, and no two variants alias.
        let mut seen = std::collections::HashMap::new();
        for cmd in cmds {
            let h = hash_of(cmd.clone());
            assert_eq!(h, hash_of(cmd.clone()), "hashing is deterministic");
            if let Some(prev) = seen.insert(h, cmd.clone()) {
                panic!("{prev:?} and {cmd:?} hash alike ({h:#x})");
            }
        }
    }

    /// Pins the fold itself: a change to how commands are hashed changes
    /// every persisted memo key. If this literal has to change, bump the
    /// store's memo record version too (`crates/store/src/record.rs`), so
    /// memos journaled under the old hash are quarantined instead of
    /// silently never matching again.
    #[test]
    fn prefix_hash_is_pinned() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), KernelDesc::Elementwise {
            elements: 64,
            flops_per_element: 2.5,
            inputs: 2,
            outputs: 1,
        });
        let ev = s.record(StreamId(0));
        s.launch_labeled(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 }, vec![ev], "gather");
        s.transfer(StreamId(1), 4096, 0, 1, vec![ev]);
        s.barrier();
        s.all_reduce(StreamId(0), 512, 3);
        s.host_sync();
        assert_eq!(s.prefix_hash(), 0x3A0B_F2F2_54DE_8844);
    }

    #[test]
    fn interned_launches_match_plain_ones() {
        let k = KernelDesc::Softmax { rows: 4, cols: 8 };
        let mut a = Schedule::new(1);
        a.launch_after(StreamId(0), k, Vec::new());
        let mut b = Schedule::new(1);
        b.launch_interned(StreamId(0), k, Vec::new(), Arc::from(k.label()));
        assert_eq!(a, b, "same command, hash, and span label");
    }

    #[test]
    fn boundaries_stay_out_of_render() {
        let mut a = Schedule::new(1);
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        let mut b = a.clone();
        b.mark_boundary();
        assert_eq!(a.render(), b.render(), "boundaries are engine metadata, not commands");
    }
}
