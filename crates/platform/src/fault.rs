//! Fault injection for control-plane testing.
//!
//! A month-scale measurement platform is only trustworthy if its collection
//! layer survives the failures the paper's operational report implies
//! (dead honeypots, lost connections, partial uploads).  A [`FaultPlan`]
//! makes an agent misbehave in precisely scripted ways — a corrupted or
//! truncated upload frame, a kill right before or after an upload — so
//! tests can assert the daemon's recovery: corrupt chunks must be
//! re-requested (never merged), killed agents must be relaunched, and
//! interrupted uploads must resume without loss or duplication.  Timing
//! faults (a silent or late link) belong to [`crate::impair`].

/// Scripted misbehaviour for one agent.  `default()` is a well-behaved
/// agent.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Corrupt the CRC trailer of the upload frame carrying this sequence
    /// number, once.  The clean frame is kept and re-sent on `ChunkRetry`.
    pub corrupt_chunk_seq: Option<u64>,
    /// Write only half of the upload frame carrying this sequence number,
    /// then drop the control connection, once.  The agent reconnects with
    /// `resume = true` and re-sends from the daemon's acked position.
    pub truncate_chunk_seq: Option<u64>,
    /// Die abruptly (no `Goodbye`, honeypot torn down) right after
    /// *sending* the upload frame carrying this sequence number — the ack
    /// is never read, so the daemon has merged a chunk the agent never
    /// learned about.  The relaunched incarnation must resume past it.
    pub kill_after_chunk: Option<u64>,
    /// Die abruptly right *before* sending the upload frame carrying this
    /// sequence number, after it was journaled and spooled.  The daemon
    /// never saw the chunk; with a durable spool the relaunched
    /// incarnation must replay and deliver it, losing nothing.
    pub kill_before_chunk: Option<u64>,
}

/// One-shot fault state carried across an agent's reconnects and
/// incarnations (each scripted fault fires at most once per agent, not
/// once per connection).
#[derive(Debug, Default)]
pub struct FaultState {
    pub corrupted: bool,
    pub truncated: bool,
}

impl FaultPlan {
    /// Whether the upload of `seq` should be sent with a corrupted CRC.
    pub fn should_corrupt(&self, seq: u64, state: &mut FaultState) -> bool {
        if self.corrupt_chunk_seq == Some(seq) && !state.corrupted {
            state.corrupted = true;
            return true;
        }
        false
    }

    /// Whether the upload of `seq` should be truncated mid-frame.
    pub fn should_truncate(&self, seq: u64, state: &mut FaultState) -> bool {
        if self.truncate_chunk_seq == Some(seq) && !state.truncated {
            state.truncated = true;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once() {
        let plan = FaultPlan {
            corrupt_chunk_seq: Some(3),
            truncate_chunk_seq: Some(5),
            ..FaultPlan::default()
        };
        let mut state = FaultState::default();
        assert!(!plan.should_corrupt(2, &mut state));
        assert!(plan.should_corrupt(3, &mut state));
        assert!(!plan.should_corrupt(3, &mut state), "one-shot");
        assert!(plan.should_truncate(5, &mut state));
        assert!(!plan.should_truncate(5, &mut state), "one-shot");
    }

    #[test]
    fn default_plan_is_faultless() {
        let plan = FaultPlan::default();
        let mut state = FaultState::default();
        for seq in 0..10 {
            assert!(!plan.should_corrupt(seq, &mut state));
            assert!(!plan.should_truncate(seq, &mut state));
        }
    }
}
