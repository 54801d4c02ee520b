//! Observability hooks: typed simulation events and the [`Recorder`]
//! contract.
//!
//! The engine funnels every externally meaningful state change through
//! [`Recorder::record`]: CPU segments (with the work they were asked to do,
//! so injected detour time is recoverable), op completions, message
//! injections and deliveries (eager, RTS, CTS, rendezvous payload),
//! dependency-readiness edges, receive postings, and match-queue depth
//! samples. Together these events are a complete account of a run — enough
//! to rebuild per-rank timelines, walk the critical path, and attribute
//! noise (see the `cesim-obs` crate, which provides the ring-buffer
//! [`TimelineRecorder`], Chrome-trace export, and the critical-path
//! walker).
//!
//! **Zero cost when disabled.** [`Simulator`](crate::Simulator) is generic
//! over its recorder and every `record` call is guarded by the associated
//! constant [`Recorder::ENABLED`]. With the default [`NullRecorder`]
//! (`ENABLED = false`) the guard is a compile-time constant and the whole
//! instrumentation — including event construction — is dead code the
//! optimizer removes; `simulate()` compiles to the same loop it was before
//! the hooks existed. The `obs` bench in `cesim-bench` keeps this honest.
//!
//! **Timestamp conventions.**
//!
//! * [`SimEvent::Exec`] covers the full CPU occupation `start..end`; the
//!   interval's injected detour time is `(end - start) - work`.
//! * [`SimEvent::Detour`] is emitted (only when non-zero) with the detour
//!   placed at the **tail** of its segment, `at = end - dur` — the noise
//!   model only reports the stretched end, so the placement inside the
//!   segment is a convention, chosen so that `start + work = at`.
//! * [`SimEvent::MsgDeliver`] fires at *match* time. For a message that
//!   found a posted receive this equals its wire arrival; for a message
//!   that waited in the unexpected queue it is the (later) time the
//!   receive was posted. Comparing it with [`SimEvent::MsgSend::arrive`]
//!   separates network-bound from receiver-bound completions.

use cesim_goal::Tag;
use cesim_model::{Span, Time};

/// What a recorded CPU segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SegKind {
    /// Application compute (`calc` work).
    Calc,
    /// Eager-send CPU overhead (`o + bytes·O`).
    SendCpu,
    /// Rendezvous request-to-send overhead on the sender.
    Rts,
    /// Rendezvous clear-to-send reply overhead on the receiver.
    CtsReply,
    /// Rendezvous payload injection overhead on the sender.
    RendPayload,
    /// Receive-completion CPU overhead.
    RecvCpu,
}

impl SegKind {
    /// Short lowercase label (Chrome-trace slice names).
    pub fn label(self) -> &'static str {
        match self {
            SegKind::Calc => "calc",
            SegKind::SendCpu => "send",
            SegKind::Rts => "rts",
            SegKind::CtsReply => "cts",
            SegKind::RendPayload => "payload",
            SegKind::RecvCpu => "recv",
        }
    }

    /// True for application compute; everything else is communication
    /// overhead.
    pub fn is_compute(self) -> bool {
        matches!(self, SegKind::Calc)
    }
}

/// Wire-message classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Eagerly buffered payload.
    Eager,
    /// Rendezvous request-to-send (control).
    Rts,
    /// Rendezvous clear-to-send (control).
    Cts,
    /// Rendezvous payload.
    Payload,
}

impl MsgClass {
    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Eager => "eager",
            MsgClass::Rts => "rts",
            MsgClass::Cts => "cts",
            MsgClass::Payload => "payload",
        }
    }
}

/// One typed simulation event, stamped with simulated time.
///
/// All variants are small `Copy` records so a ring buffer of them is a
/// flat allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A CPU segment executed on behalf of op `op`: occupied
    /// `start..end`, of which `work` was requested computation — the
    /// remainder is injected detour time.
    Exec {
        /// Executing rank.
        rank: u32,
        /// Op the segment serves (for [`SegKind::CtsReply`] this is the
        /// *receive* op answering the RTS).
        op: u32,
        /// Segment purpose.
        seg: SegKind,
        /// Segment start (after CPU-cursor serialization).
        start: Time,
        /// Segment end, including injected detours.
        end: Time,
        /// Useful work requested.
        work: Span,
    },
    /// A non-zero noise detour of `dur` inside the segment ending at
    /// `at + dur` (tail-placement convention, see module docs).
    ///
    /// Note the noise-model granularity: one `Detour` record aggregates
    /// **all** CE arrivals the noise model folded into a single CPU
    /// segment (the engine only observes the stretched segment end), so
    /// an id names one contiguous stolen interval, not necessarily one
    /// CE.
    Detour {
        /// Stable per-run detour id, assigned in emission order starting
        /// at 0. Deterministic: the engine loop is deterministic, so the
        /// same (schedule, params, noise stream) yields the same ids.
        /// Provenance tooling (`cesim-obs::provenance`) keys per-event
        /// attribution on this.
        id: u64,
        /// Affected rank.
        rank: u32,
        /// Op whose segment absorbed the detour.
        op: u32,
        /// Detour start under the tail-placement convention.
        at: Time,
        /// Detour duration.
        dur: Span,
    },
    /// Op `op` on `rank` completed at `at`.
    OpDone {
        /// Completing rank.
        rank: u32,
        /// Completed op.
        op: u32,
        /// Completion time.
        at: Time,
    },
    /// A receive was posted (no matching message had arrived yet).
    RecvPosted {
        /// Posting rank.
        rank: u32,
        /// The receive op.
        op: u32,
        /// Posting time.
        at: Time,
    },
    /// A message was injected into the network.
    MsgSend {
        /// Unique message id, shared with the matching
        /// [`SimEvent::MsgDeliver`].
        id: u64,
        /// Sending rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// The op on `src` this message serves (for [`MsgClass::Cts`],
        /// the *receive* op).
        src_op: u32,
        /// Message class.
        class: MsgClass,
        /// Payload size.
        bytes: u64,
        /// MPI tag.
        tag: Tag,
        /// NIC injection time.
        inject: Time,
        /// Wire arrival time at `dst`.
        arrive: Time,
    },
    /// A message was matched to a receive (or, for CTS, returned to its
    /// sender) at `at` — wire arrival for an expected message, receive
    /// posting time for one that waited in the unexpected queue.
    MsgDeliver {
        /// Message id from the corresponding [`SimEvent::MsgSend`].
        id: u64,
        /// Sending rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// The sender-side op (as in [`SimEvent::MsgSend`]).
        src_op: u32,
        /// The op on `dst` the message resolved to.
        dst_op: u32,
        /// Message class.
        class: MsgClass,
        /// Payload size.
        bytes: u64,
        /// Match time.
        at: Time,
    },
    /// Completion of `from` satisfied the last unmet dependency of `to`
    /// (same rank), making it ready at `at`.
    DepEdge {
        /// Rank owning both ops.
        rank: u32,
        /// The op whose completion fired the edge.
        from: u32,
        /// The op that became ready.
        to: u32,
        /// Readiness time.
        at: Time,
    },
    /// Match-queue depths on `rank` after a queue mutation.
    QueueDepth {
        /// Sampled rank.
        rank: u32,
        /// Sample time.
        at: Time,
        /// Unexpected-message queue depth.
        unexpected: u32,
        /// Posted-receive queue depth.
        posted: u32,
    },
}

impl SimEvent {
    /// The simulated time the event is stamped with (segment start for
    /// [`SimEvent::Exec`], detour start for [`SimEvent::Detour`],
    /// injection time for [`SimEvent::MsgSend`]).
    pub fn at(&self) -> Time {
        match *self {
            SimEvent::Exec { start, .. } => start,
            SimEvent::Detour { at, .. } => at,
            SimEvent::OpDone { at, .. } => at,
            SimEvent::RecvPosted { at, .. } => at,
            SimEvent::MsgSend { inject, .. } => inject,
            SimEvent::MsgDeliver { at, .. } => at,
            SimEvent::DepEdge { at, .. } => at,
            SimEvent::QueueDepth { at, .. } => at,
        }
    }
}

/// Receives the engine's typed event stream.
///
/// Implementations must be cheap: the engine calls `record` from its hot
/// loop. `ENABLED = false` turns every call site into dead code (the
/// default [`NullRecorder`] path costs nothing).
pub trait Recorder {
    /// Whether the engine should emit events at all. Call sites are
    /// guarded by this constant, so a `false` here removes the
    /// instrumentation at compile time.
    const ENABLED: bool = true;

    /// Observe one event.
    fn record(&mut self, ev: SimEvent);
}

/// The do-nothing recorder: disables instrumentation at compile time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: SimEvent) {}
}

/// Forwarding impl so a recorder can be lent to the simulator
/// (`sim.with_recorder(&mut rec)`) and inspected after the run.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn record(&mut self, ev: SimEvent) {
        (**self).record(ev);
    }
}

/// A minimal buffering recorder: keeps every event in a `Vec`, unbounded.
/// Useful in tests; production tracing should prefer the bounded
/// `TimelineRecorder` in `cesim-obs`.
#[derive(Clone, Debug, Default)]
pub struct VecRecorder {
    /// Recorded events in emission order.
    pub events: Vec<SimEvent>,
}

impl Recorder for VecRecorder {
    fn record(&mut self, ev: SimEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        const {
            assert!(!NullRecorder::ENABLED);
            assert!(!<&mut NullRecorder as Recorder>::ENABLED);
            assert!(VecRecorder::ENABLED);
            assert!(<&mut VecRecorder as Recorder>::ENABLED);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SegKind::Calc.label(), "calc");
        assert_eq!(SegKind::RendPayload.label(), "payload");
        assert_eq!(MsgClass::Cts.label(), "cts");
        assert!(SegKind::Calc.is_compute());
        assert!(!SegKind::RecvCpu.is_compute());
    }

    #[test]
    fn event_timestamps() {
        let e = SimEvent::Exec {
            rank: 0,
            op: 1,
            seg: SegKind::Calc,
            start: Time::from_ps(10),
            end: Time::from_ps(20),
            work: Span::from_ps(10),
        };
        assert_eq!(e.at(), Time::from_ps(10));
        let d = SimEvent::Detour {
            id: 0,
            rank: 0,
            op: 1,
            at: Time::from_ps(15),
            dur: Span::from_ps(5),
        };
        assert_eq!(d.at(), Time::from_ps(15));
    }
}
