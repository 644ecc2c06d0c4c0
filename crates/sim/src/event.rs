//! Typed wake reasons for the event-driven fleet core.

/// Why a simulation component ran in full instead of fast-forwarding.
///
/// Reasons are attribution only: each leaf's fast path re-verifies its own
/// window inputs, so a reason never decides whether a leaf runs in full.
/// Every traced wake carries its reasons, so a trace can attribute each
/// woken component to its cause classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WakeReason {
    /// The component's routed load changed (an exact bit comparison — no
    /// epsilon: any change to the demand a leaf serves is a real change).
    LoadDelta,
    /// A controller poll deadline arrived, or a sub-controller acted while
    /// the component was otherwise steady.
    ControllerPoll,
    /// A job was placed on (or migrated onto) the component.
    JobArrival,
    /// A resident job completed, was preempted, or migrated away.
    JobCompletion,
    /// The component itself changed state: commissioned, draining,
    /// reactivated.
    Lifecycle,
}

impl WakeReason {
    /// Every reason, in a stable order (the order trace sections report).
    pub const ALL: [WakeReason; 5] = [
        WakeReason::LoadDelta,
        WakeReason::ControllerPoll,
        WakeReason::JobArrival,
        WakeReason::JobCompletion,
        WakeReason::Lifecycle,
    ];

    /// Stable index of this reason within [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        match self {
            WakeReason::LoadDelta => 0,
            WakeReason::ControllerPoll => 1,
            WakeReason::JobArrival => 2,
            WakeReason::JobCompletion => 3,
            WakeReason::Lifecycle => 4,
        }
    }

    /// The reason's name as recorded in traces.
    pub fn name(self) -> &'static str {
        match self {
            WakeReason::LoadDelta => "load-delta",
            WakeReason::ControllerPoll => "controller-poll",
            WakeReason::JobArrival => "job-arrival",
            WakeReason::JobCompletion => "job-completion",
            WakeReason::Lifecycle => "lifecycle",
        }
    }
}
