//! # cesim-engine
//!
//! A LogGOPS discrete-event simulator in the spirit of LogGOPSim
//! (Hoefler, Schneider, Lumsdaine, HPDC 2010), the simulator the paper
//! uses to project correctable-error logging overheads to full-machine
//! scale.
//!
//! The engine executes a [`cesim_goal::Schedule`] — per-rank dependency
//! DAGs of `calc`/`send`/`recv` operations — under the LogGOPS cost model
//! ([`cesim_model::LogGopsParams`]):
//!
//! * each rank has a **CPU** resource (serializes `calc` work and the
//!   per-message `o + bytes·O` overheads) and a **NIC** resource
//!   (serializes injections at `g + bytes·G`),
//! * messages arrive `L + bytes·G` after injection starts,
//! * messages up to the eager threshold `S` are buffered eagerly; larger
//!   ones use an RTS/CTS rendezvous handshake,
//! * MPI matching is FIFO per (source, tag) with `MPI_ANY_SOURCE`
//!   wildcard support, with posted-receive and unexpected-message queues.
//!
//! **Noise injection.** Every interval of CPU work is routed through a
//! [`NoiseModel`], which may stretch it by inserting detours — this is how
//! correctable-error handling costs (and any other OS noise) enter the
//! simulation. Because message completions depend on CPU availability,
//! detours on one rank propagate along communication dependencies to ranks
//! it never talks to directly, reproducing the behavior sketched in
//! Fig. 1 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod fork;
pub mod matchq;
pub mod noise;
pub mod queue;
pub mod record;
pub mod result;
pub mod shard;
pub mod sim;
pub mod topology;

pub use compile::CompiledSchedule;
pub use fork::{Fork, ForkRun, ForkTable, Snapshot};
pub use matchq::TagQueue;
pub use noise::{NoNoise, NoiseModel};
pub use record::{MsgClass, NullRecorder, Recorder, SegKind, SimEvent, VecRecorder};
pub use result::{SimError, SimResult};
pub use shard::{auto_shards, shard_globals, simulate_compiled_sharded, ShardGlobals, ShardHealth};
pub use sim::{simulate, simulate_compiled, simulate_compiled_with, RunScratch, Simulator};
pub use topology::{Dragonfly, FatTree, FlatCrossbar, Topology, Torus3D};
