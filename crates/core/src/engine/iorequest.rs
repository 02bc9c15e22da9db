//! In-flight I/O requests.
//!
//! An I/O request carries the remaining service stages decided by the disk
//! unit (controller → disk → transmission), the transaction waiting for it (if
//! any), and the follow-up work to perform on completion (waking the waiter,
//! releasing a group-commit batch, notifying the buffer manager about an
//! asynchronous write, spawning the background destage of an absorbed write).
//!
//! Requests live in the engine's [`IoArena`]; the stage list is stored as the
//! device-produced `Vec` plus a cursor (no per-request deque conversion).
//!
//! [`IoArena`]: super::arena::IoArena

use dbmodel::PageId;
use simkernel::time::SimTime;
use storage::ServiceStage;

/// Which of the unit's resources the request currently holds (or waits for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeldResource {
    /// A controller of the unit.
    Controller,
    /// A disk server of the unit.
    Disk,
}

/// One in-flight I/O request.
#[derive(Debug)]
pub(crate) struct IoRequest {
    /// The disk unit serving the request.
    pub unit: usize,
    /// The node whose buffer manager issued the request (routes buffer
    /// notifications in data-sharing runs; 0 in a single-node run).
    pub node: usize,
    /// The page concerned.
    pub page: PageId,
    /// Transaction slot waiting for the foreground part, if any.
    pub waiter: Option<usize>,
    /// Foreground stages as decided by the device.
    stages: Vec<ServiceStage>,
    /// Index of the next stage in `stages` (already-served prefix).
    next_stage: usize,
    /// Background stages to run after the foreground completes (destage of an
    /// absorbed write).
    pub background: Vec<ServiceStage>,
    /// Transaction slots of a group-commit batch parked on this log write,
    /// or of reads that joined this read of the same page.
    pub group_waiters: Vec<usize>,
    /// Tell the buffer manager when this (asynchronous) write completes.
    pub notify_bufmgr: bool,
    /// Decrement the engine's log-write-buffer occupancy on completion.
    pub log_wb: bool,
    /// This request *is* a background destage; completion updates the disk
    /// unit's cache state.
    pub is_destage: bool,
    /// Issue time of a checkpoint log record; on completion the measured
    /// latency (including queueing) is charged as checkpoint overhead.
    pub checkpoint_issued_at: Option<SimTime>,
    /// Resource currently held (or queued for).
    pub held: Option<HeldResource>,
    /// Service time of the stage waiting for a resource grant.
    pub pending_service: SimTime,
}

impl IoRequest {
    /// Creates a request from a stage list.
    pub fn new(
        unit: usize,
        page: PageId,
        stages: Vec<ServiceStage>,
        waiter: Option<usize>,
    ) -> Self {
        Self {
            unit,
            node: 0,
            page,
            waiter,
            stages,
            next_stage: 0,
            background: Vec::new(),
            group_waiters: Vec::new(),
            notify_bufmgr: false,
            log_wb: false,
            is_destage: false,
            checkpoint_issued_at: None,
            held: None,
            pending_service: 0.0,
        }
    }

    /// Advances to (and returns) the next remaining foreground stage.
    #[inline]
    pub fn pop_stage(&mut self) -> Option<ServiceStage> {
        let stage = self.stages.get(self.next_stage).copied();
        if stage.is_some() {
            self.next_stage += 1;
        }
        stage
    }

    /// Number of foreground stages not yet served.
    #[cfg(test)]
    pub fn remaining_stages(&self) -> usize {
        self.stages.len() - self.next_stage
    }

    /// Attaches background (destage) stages.
    pub fn with_background(mut self, background: Vec<ServiceStage>) -> Self {
        self.background = background;
        self
    }

    /// Sets the issuing node.
    pub fn for_node(mut self, node: usize) -> Self {
        self.node = node;
        self
    }

    /// Marks the request as an asynchronous write the buffer manager tracks.
    pub fn with_bufmgr_notification(mut self) -> Self {
        self.notify_bufmgr = true;
        self
    }

    /// Marks the request as a log write going through the NVEM write buffer.
    pub fn with_log_wb(mut self) -> Self {
        self.log_wb = true;
        self
    }

    /// Marks the request as a background destage.
    pub fn into_destage(mut self) -> Self {
        self.is_destage = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_flags() {
        let mut io = IoRequest::new(2, PageId(7), vec![ServiceStage::Disk(5.0)], Some(3))
            .with_background(vec![ServiceStage::Disk(5.0)])
            .with_bufmgr_notification()
            .with_log_wb()
            .for_node(1);
        assert_eq!(io.unit, 2);
        assert_eq!(io.node, 1);
        assert_eq!(io.waiter, Some(3));
        assert_eq!(io.remaining_stages(), 1);
        assert_eq!(io.background.len(), 1);
        assert!(io.notify_bufmgr);
        assert!(io.log_wb);
        assert!(!io.is_destage);
        assert!(io.group_waiters.is_empty());
        assert_eq!(io.checkpoint_issued_at, None);
        assert_eq!(io.pop_stage(), Some(ServiceStage::Disk(5.0)));
        assert_eq!(io.remaining_stages(), 0);
        assert_eq!(io.pop_stage(), None);
        let destage = IoRequest::new(0, PageId(1), vec![], None).into_destage();
        assert!(destage.is_destage);
        assert!(destage.waiter.is_none());
    }
}
