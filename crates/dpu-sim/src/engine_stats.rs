//! Engine residency counters: which execution mode retired each issue
//! slot, and how the tasklet-major chunks fared.
//!
//! These describe *how the host simulated* a run, not what the simulated
//! DPU did, so they differ across [`crate::Engine`] tiers by design and
//! are deliberately kept out of [`crate::RunResult`] (which the identity
//! suites compare across tiers). A [`crate::Machine`] accumulates them
//! over its lifetime; hosts read deltas around a launch.

/// Why a tasklet-major chunk was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkAbort {
    /// A tasklet reached a scheduling boundary (`mram.*`, `barrier`,
    /// `mutex.*`, `perf.*`, `halt`) or a `call` before its quota.
    Boundary,
    /// Two tasklets touched one WRAM word, at least one of them storing.
    Conflict,
    /// A `trace` op: the DPU log is ordered across tasklets.
    Trace,
    /// A memory fault or an out-of-range pc.
    Fault,
}

/// Declares [`EngineStats`] from one list of `field => "metric.suffix"`
/// pairs, so the struct, its metric names and its arithmetic cannot
/// drift apart.
macro_rules! engine_stats {
    ($( $(#[$doc:meta])* $field:ident => $key:literal, )+) => {
        /// Issue slots retired per execution mode, plus chunk outcomes.
        ///
        /// The six `slots.*` counters partition every issued slot of
        /// every run the machine has executed (reference and profiled
        /// runs count under `reference_slots` entirely, replayed
        /// runs under `replayed_slots`); `undersaturated_slots` and
        /// `orbit_slots` cut across them.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl EngineStats {
            /// Every counter with its stable metric-key suffix (hosts
            /// publish them as `obs.engine.<suffix>`).
            #[must_use]
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$( ($key, self.$field), )+]
            }

            /// Counter-wise `self - earlier`: the runs in between.
            #[must_use]
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field - earlier.$field, )+ }
            }
        }

        impl std::ops::AddAssign for EngineStats {
            fn add_assign(&mut self, other: Self) {
                $( self.$field += other.$field; )+
            }
        }
    };
}

engine_stats! {
    /// One `pick`, one dispatch: the reference loops and the fast
    /// engine's per-slot fallback.
    reference_slots => "slots.reference",
    /// Sole-runnable batches.
    sole_slots => "slots.sole",
    /// Rotation-batch slots dispatched one at a time, in issue order.
    rotation_slots => "slots.rotation",
    /// Rotation-batch slots retired by committed tasklet-major chunks.
    chunk_slots => "slots.chunk",
    /// Whole rounds of subroutine-burst slots retired in one step.
    burst_batch_slots => "slots.burst_batch",
    /// Slots of runs replayed from a recording ("Recorded launches" in
    /// `docs/PERFORMANCE.md`): reported by the `RunResult`, issued
    /// through no engine mode.
    replayed_slots => "slots.replayed",
    /// Of the rotation, chunk and burst-batch slots, those retired while
    /// fewer tasklets than pipeline stages were rotating (idle cycles
    /// every round) — not a seventh mode.
    undersaturated_slots => "rotation.undersaturated_slots",
    /// Of the same three modes' slots, those retired on a schedule that
    /// [`crate::pipeline::Pipeline::orbit_schedule`] verified because no
    /// closed form fit (more runnable tasklets than stages in a permuted
    /// rotation) — not a mode either.
    orbit_slots => "rotation.orbit_slots",
    /// Orbit probes made: closed-form probes that failed with more
    /// runnable tasklets than stages.
    orbit_probes => "rotation.orbit_probes",
    /// Orbit probes that found no repeating round (the rotation has not
    /// settled yet); the run carried on pick by pick under the hold-off.
    orbit_misses => "rotation.orbit_misses",
    /// Chunks that committed.
    chunk_commits => "chunk.commits",
    /// Chunks rolled back at a boundary instruction.
    chunk_aborts_boundary => "chunk.aborts.boundary",
    /// Chunks rolled back on a cross-tasklet WRAM overlap.
    chunk_aborts_conflict => "chunk.aborts.conflict",
    /// Chunks rolled back at a `trace` op.
    chunk_aborts_trace => "chunk.aborts.trace",
    /// Chunks rolled back on a memory fault or out-of-range pc.
    chunk_aborts_fault => "chunk.aborts.fault",
    /// Of the chunk slots, those retired in lane groups (see
    /// `crate::lanes`) — not a seventh mode.
    chunk_lane_slots => "chunk.lane_slots",
    /// Lane-group dispatches of committed chunks, counted per
    /// instruction: `chunk_lane_slots / chunk_lane_steps` is the mean
    /// number of tasklets sharing one decode.
    chunk_lane_steps => "chunk.lane_steps",
    /// Slots executed inside chunks that were then rolled back (host work
    /// thrown away; those slots retire again through another mode).
    chunk_rolled_back_slots => "chunk.rolled_back_slots",
    /// Runs replayed from a recording.
    replay_hits => "replay.hits",
    /// Runs recorded to completion and offered to the table.
    replay_records => "replay.records",
    /// Recordings dropped mid-run (slot or byte cap, or a read straddling
    /// the run's own output); their slots so far went through per-slot
    /// picks and the run carried on through the fast engine.
    replay_abandoned => "replay.abandoned",
}

impl EngineStats {
    /// Total issue slots retired, over all modes.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.reference_slots + self.batched_slots() + self.replayed_slots
    }

    /// Slots an engine retired by anything other than the per-slot
    /// reference path.
    pub(crate) fn batched_slots(&self) -> u64 {
        self.sole_slots + self.rotation_slots + self.chunk_slots + self.burst_batch_slots
    }

    pub(crate) fn record_abort(&mut self, reason: ChunkAbort, wasted_slots: u64) {
        match reason {
            ChunkAbort::Boundary => self.chunk_aborts_boundary += 1,
            ChunkAbort::Conflict => self.chunk_aborts_conflict += 1,
            ChunkAbort::Trace => self.chunk_aborts_trace += 1,
            ChunkAbort::Fault => self.chunk_aborts_fault += 1,
        }
        self.chunk_rolled_back_slots += wasted_slots;
    }
}
