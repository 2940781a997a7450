//! Interrupt controller model.
//!
//! Devices assert numbered interrupt lines, optionally at a future virtual
//! time (modelling completion latency). The CPU side — a gold driver's IRQ
//! handler or the replayer's interrupt context — waits for a line, which
//! advances virtual time until the assertion deadline passes.

use std::collections::BTreeMap;

/// Well-known interrupt line numbers on the simulated SoC.
pub mod lines {
    /// SDHOST (MMC controller) interrupt.
    pub const MMC: u32 = 56;
    /// DWC2 USB host controller interrupt.
    pub const USB: u32 = 9;
    /// VCHIQ doorbell 0 (VC4 -> ARM).
    pub const VCHIQ: u32 = 66;
    /// System DMA engine channel used by the SDHOST driver.
    pub const DMA: u32 = 27;
}

/// State of one interrupt line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    /// Not asserted.
    Idle,
    /// Will become pending once virtual time reaches the deadline.
    Scheduled { deadline_ns: u64 },
    /// Pending now.
    Pending,
}

/// A simple level-triggered interrupt controller with scheduled assertions.
#[derive(Debug, Clone, Default)]
pub struct IrqController {
    lines: BTreeMap<u32, LineState>,
    /// Total number of assertions observed (for statistics / Table 5-style
    /// event accounting).
    assert_count: u64,
    /// Total number of times software acknowledged (cleared) a line.
    ack_count: u64,
}

impl IrqController {
    /// Create an interrupt controller with no lines asserted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert `line` immediately.
    pub fn assert_now(&mut self, line: u32) {
        self.lines.insert(line, LineState::Pending);
        self.assert_count += 1;
    }

    /// Schedule `line` to become pending at `deadline_ns` virtual time.
    ///
    /// If the line already has an earlier deadline or is already pending the
    /// earlier state wins (a device cannot "unassert by rescheduling").
    pub fn assert_at(&mut self, line: u32, deadline_ns: u64) {
        let next = match self.lines.get(&line) {
            Some(LineState::Pending) => LineState::Pending,
            Some(LineState::Scheduled { deadline_ns: d }) => {
                LineState::Scheduled { deadline_ns: (*d).min(deadline_ns) }
            }
            _ => LineState::Scheduled { deadline_ns },
        };
        self.lines.insert(line, next);
        self.assert_count += 1;
    }

    /// Clear (acknowledge) `line`.
    pub fn clear(&mut self, line: u32) {
        self.lines.insert(line, LineState::Idle);
        self.ack_count += 1;
    }

    /// Promote any scheduled assertion whose deadline has passed.
    pub fn tick(&mut self, now_ns: u64) {
        for state in self.lines.values_mut() {
            if let LineState::Scheduled { deadline_ns } = state {
                if *deadline_ns <= now_ns {
                    *state = LineState::Pending;
                }
            }
        }
    }

    /// Whether `line` is pending at `now_ns` (scheduled deadlines that have
    /// passed count as pending even before a `tick`).
    pub fn is_pending(&self, line: u32, now_ns: u64) -> bool {
        match self.lines.get(&line) {
            Some(LineState::Pending) => true,
            Some(LineState::Scheduled { deadline_ns }) => *deadline_ns <= now_ns,
            _ => false,
        }
    }

    /// The earliest scheduled deadline across all lines.
    pub fn earliest_deadline(&self) -> Option<u64> {
        self.lines
            .values()
            .filter_map(|s| match s {
                LineState::Scheduled { deadline_ns } => Some(*deadline_ns),
                _ => None,
            })
            .min()
    }

    /// Total number of assertion requests observed.
    pub fn assert_count(&self) -> u64 {
        self.assert_count
    }

    /// Total number of acknowledgements observed.
    pub fn ack_count(&self) -> u64 {
        self.ack_count
    }

    /// Drop all pending/scheduled state (used by device soft reset).
    pub fn reset_line(&mut self, line: u32) {
        self.lines.insert(line, LineState::Idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_and_clear() {
        let mut irq = IrqController::new();
        assert!(!irq.is_pending(lines::MMC, 0));
        irq.assert_now(lines::MMC);
        assert!(irq.is_pending(lines::MMC, 0));
        irq.clear(lines::MMC);
        assert!(!irq.is_pending(lines::MMC, 0));
        assert_eq!(irq.assert_count(), 1);
        assert_eq!(irq.ack_count(), 1);
    }

    #[test]
    fn scheduled_assertion_becomes_pending_at_deadline() {
        let mut irq = IrqController::new();
        irq.assert_at(lines::USB, 1_000);
        assert!(!irq.is_pending(lines::USB, 999));
        assert!(irq.is_pending(lines::USB, 1_000));
        // tick promotes it to a hard Pending state
        irq.tick(1_500);
        assert!(irq.is_pending(lines::USB, 0));
    }

    #[test]
    fn earlier_deadline_wins() {
        let mut irq = IrqController::new();
        irq.assert_at(lines::VCHIQ, 5_000);
        irq.assert_at(lines::VCHIQ, 2_000);
        assert_eq!(irq.earliest_deadline(), Some(2_000));
        irq.assert_at(lines::VCHIQ, 9_000);
        assert_eq!(irq.earliest_deadline(), Some(2_000));
    }

    #[test]
    fn pending_is_not_downgraded_by_reschedule() {
        let mut irq = IrqController::new();
        irq.assert_now(lines::MMC);
        irq.assert_at(lines::MMC, 10_000);
        assert!(irq.is_pending(lines::MMC, 0));
    }

    #[test]
    fn earliest_deadline_across_lines() {
        let mut irq = IrqController::new();
        assert_eq!(irq.earliest_deadline(), None);
        irq.assert_at(lines::MMC, 700);
        irq.assert_at(lines::USB, 300);
        assert_eq!(irq.earliest_deadline(), Some(300));
    }

    #[test]
    fn reset_line_discards_scheduled_state() {
        let mut irq = IrqController::new();
        irq.assert_at(lines::DMA, 100);
        irq.reset_line(lines::DMA);
        assert!(!irq.is_pending(lines::DMA, 1_000));
        assert_eq!(irq.earliest_deadline(), None);
    }
}
