//! Per-device read coalescing: the one I/O scheduling mechanism TPSIM keeps.
//!
//! Every storage unit serves requests FCFS, one page at a time, straight
//! against its controller/disk resources.  With coalescing enabled, a
//! synchronous read of a page that already has a read in flight on the same
//! unit does not pay a second access: it joins the in-flight request, and
//! the engine wakes it from that request's completion fan-out.
//!
//! [`ReadCoalescer`] is the per-unit bookkeeping for this: a map from page to
//! the id of the read serving it, plus the count of reads that joined one.
//! It never consults simulated time and is only ever probed by key, so it
//! cannot perturb determinism.

use std::collections::BTreeMap;

use dbmodel::PageId;

/// In-flight reads of one storage unit and the count of reads that joined
/// one of them instead of issuing their own access.
#[derive(Debug, Default)]
pub struct ReadCoalescer {
    /// Page → id of the engine request currently reading it.
    inflight: BTreeMap<PageId, u32>,
    /// Reads that joined an in-flight read of the same page.
    coalesced: u64,
}

impl ReadCoalescer {
    /// Returns the id of the read of `page` already in flight, counting the
    /// caller as a coalesced read; `None` when the caller must issue its own
    /// read (and then [`ReadCoalescer::track`] it).
    pub fn join(&mut self, page: PageId) -> Option<u32> {
        let io_id = self.inflight.get(&page).copied()?;
        self.coalesced += 1;
        Some(io_id)
    }

    /// Records that request `io_id` now reads `page`.
    pub fn track(&mut self, page: PageId, io_id: u32) {
        self.inflight.insert(page, io_id);
    }

    /// Forgets `page` if request `io_id` is the read tracked for it.  Called
    /// for every completing request: writes and untracked reads of the same
    /// page carry other ids and leave the entry alone.
    pub fn complete(&mut self, page: PageId, io_id: u32) {
        if self.inflight.get(&page) == Some(&io_id) {
            self.inflight.remove(&page);
        }
    }

    /// Reads that joined an in-flight read since the last reset.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Resets the counter (end of warm-up) without forgetting in-flight
    /// reads.
    pub fn reset_stats(&mut self) {
        self.coalesced = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_reads_coalesce_and_fan_out() {
        let mut c = ReadCoalescer::default();
        assert_eq!(c.join(PageId(5)), None, "nothing in flight yet");
        c.track(PageId(5), 11);
        // Two more readers of page 5 join request 11; page 6 does not.
        assert_eq!(c.join(PageId(5)), Some(11));
        assert_eq!(c.join(PageId(5)), Some(11));
        assert_eq!(c.join(PageId(6)), None);
        assert_eq!(c.coalesced(), 2);
        // The end of warm-up resets the count but not the in-flight read.
        c.reset_stats();
        assert_eq!(c.coalesced(), 0);
        // Another request on the same page (a write) completing leaves the
        // tracked read in place; the read's own completion frees the page.
        c.complete(PageId(5), 12);
        assert_eq!(c.join(PageId(5)), Some(11));
        c.complete(PageId(5), 11);
        assert_eq!(c.join(PageId(5)), None);
        assert_eq!(c.coalesced(), 1);
    }
}
