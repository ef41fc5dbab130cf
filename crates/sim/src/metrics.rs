//! The paper's counters as one view over MEASURE.
//!
//! Every event bumps one counter on one entity of the
//! [`crate::measure::MeasureRegistry`]. A [`MetricsSnapshot`] is computed
//! from a MEASURE snapshot by [`MetricsSnapshot::from_measure`], so the
//! global totals the experiments report can never disagree with the
//! per-entity records. Experiments take a snapshot before and after a
//! workload and subtract.

use crate::clock::{Wait, WaitProfile};
use crate::measure::{Ctr, EntityKind, MeasureSnapshot, AUDIT_PROCESS};
use std::fmt;

macro_rules! snapshot_fields {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// A point-in-time copy of the paper's counters. Supports
        /// subtraction to obtain per-workload deltas.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl MetricsSnapshot {
            /// Iterate (name, value) pairs, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$((stringify!($name), self.$name),)+].into_iter()
            }
        }

        impl std::ops::Sub for MetricsSnapshot {
            type Output = MetricsSnapshot;
            /// Saturates at zero, so out-of-order snapshots report 0 rather
            /// than panicking.
            fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(rhs.$name),)+
                }
            }
        }
    };
}

snapshot_fields! {
    /// Total request/reply message exchanges over the message system.
    msgs_total,
    /// Message exchanges that crossed a node boundary.
    msgs_remote,
    /// Total bytes carried by messages (requests + replies).
    msg_bytes_total,
    /// FS-DP interface messages (the paper's headline metric).
    msgs_fs_dp,
    /// Audit messages from data-volume DPs to the audit-trail DP.
    msgs_audit,
    /// Process-pair checkpoint messages (primary -> backup).
    msgs_checkpoint,
    /// Continuation re-drive messages (GET^NEXT / UPDATE^SUBSET^NEXT ...).
    msgs_redrive,
    /// Disk read operations issued.
    disk_reads,
    /// Disk write operations issued.
    disk_writes,
    /// Blocks transferred by disk reads, mirror copy-back included.
    disk_blocks_read,
    /// Blocks transferred by disk writes, mirror copy-back included.
    disk_blocks_written,
    /// Disk I/Os that transferred more than one block (bulk I/O).
    disk_bulk_ios,
    /// Buffer-pool lookups that hit.
    cache_hits,
    /// Buffer-pool lookups that missed and required a disk read.
    cache_misses,
    /// Blocks read ahead by the pre-fetcher.
    prefetch_reads,
    /// Cache hits satisfied from a pre-fetched block.
    prefetch_hits,
    /// Dirty-string writes issued by the write-behind mechanism.
    writebehind_writes,
    /// Clean buffers stolen by the memory-pressure handshake.
    cache_steals,
    /// Audit records generated.
    audit_records,
    /// Total audit bytes generated.
    audit_bytes,
    /// Audit-trail disk writes (group-commit flushes).
    audit_flushes,
    /// Audit flushes triggered by a buffer-full condition.
    audit_buffer_full_flushes,
    /// Transactions committed.
    txns_committed,
    /// Transactions aborted.
    txns_aborted,
    /// Transactions whose commit rode an audit write shared with others.
    group_commit_piggybacks,
    /// Lock requests that had to wait.
    lock_waits,
    /// Deadlocks detected (victim aborted).
    deadlocks,
    /// CPU work units accounted to the SQL executor / application layer.
    cpu_executor,
    /// CPU work units accounted to the File System.
    cpu_fs,
    /// CPU work units accounted to the Disk Process.
    cpu_dp,
    /// Records the Disk Process examined: by subset scans, point reads and
    /// sequential reads.
    dp_records_examined,
    /// Records the Disk Process selected (passed the filter; every record
    /// a point or sequential read returns).
    dp_records_selected,
    /// Subset Control Blocks created.
    subset_control_blocks,
    /// Rows returned to the application.
    rows_returned,
    /// Message faults injected by the fault plane (drop/dup/delay/error).
    faults_injected,
    /// Requests that surfaced a virtual-time timeout to the requester.
    msgs_timed_out,
    /// File System retries after a timeout or down path.
    fs_retries,
    /// Primary re-resolutions (backup takeover observed by a requester).
    path_switches,
    /// Duplicate requests suppressed by the Disk Process sync-ID cache.
    dp_dup_suppressed,
    /// Statement virtual time attributed to CPU service (wait.cpu).
    stmt_wait_cpu_us,
    /// Statement virtual time attributed to the message system (wait.msg).
    stmt_wait_msg_us,
    /// Statement virtual time attributed to disk I/O (wait.disk).
    stmt_wait_disk_us,
    /// Statement virtual time attributed to lock waits (wait.lock).
    stmt_wait_lock_us,
    /// Statement virtual time attributed to group-commit waits (wait.commit).
    stmt_wait_commit_us,
    /// Statement virtual time attributed to retry backoff (wait.retry).
    stmt_wait_retry_us,
    /// Statement virtual time attributed to crash recovery (wait.restart).
    stmt_wait_restart_us,
    /// Statement virtual time attributed to admission queueing (wait.admission).
    stmt_wait_admission_us,
    /// Statement virtual time left unattributed (wait.other; normally 0).
    stmt_wait_other_us,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            if value != 0 {
                writeln!(f, "  {name:<28} {value}")?;
            }
        }
        Ok(())
    }
}

impl MetricsSnapshot {
    /// The paper's counters computed from a MEASURE snapshot (or interval
    /// delta): each field sums one counter over every entity of one kind,
    /// except message bytes (sent plus received) and audit volume (which
    /// leaves out the trail's flushes). `stmt_wait` supplies the nine
    /// `stmt_wait_*_us` fields.
    pub fn from_measure(m: &MeasureSnapshot, stmt_wait: &WaitProfile) -> MetricsSnapshot {
        use Ctr::*;
        use EntityKind::*;
        let mut sums = [[0u64; Ctr::COUNT]; EntityKind::COUNT];
        for ((kind, _), vals) in &m.entities {
            for (s, v) in sums[*kind as usize].iter_mut().zip(vals) {
                *s += v;
            }
        }
        let t = |k: EntityKind, c: Ctr| sums[k as usize][c as usize];
        // The trail process's audit.* counters count what it flushed, not
        // what was generated.
        let flushed = |c: Ctr| {
            m.entities
                .iter()
                .find(|((k, n), _)| *k == Process && &**n == AUDIT_PROCESS)
                .map_or(0, |(_, v)| v[c as usize])
        };
        let w = |c: Wait| stmt_wait.get(c);
        MetricsSnapshot {
            msgs_total: t(Cpu, MsgsSent),
            msgs_remote: t(Cpu, MsgsRemote),
            msg_bytes_total: t(Cpu, BytesSent) + t(Cpu, BytesRecv),
            msgs_fs_dp: t(Cpu, MsgsFsDp),
            msgs_audit: t(Cpu, MsgsAudit),
            msgs_checkpoint: t(Cpu, MsgsCheckpoint),
            msgs_redrive: t(Process, MsgsRedrive),
            disk_reads: t(Volume, DiskReads),
            disk_writes: t(Volume, DiskWrites),
            disk_blocks_read: t(Volume, BlocksRead),
            disk_blocks_written: t(Volume, BlocksWritten),
            disk_bulk_ios: t(Volume, BulkIos),
            cache_hits: t(Cache, CacheHits),
            cache_misses: t(Cache, CacheFaults),
            prefetch_reads: t(Volume, PrefetchReads),
            prefetch_hits: t(Cache, PrefetchHits),
            writebehind_writes: t(Volume, WritebehindWrites),
            cache_steals: t(Cache, CacheEvicts),
            audit_records: t(Process, AuditRecords) - flushed(AuditRecords) + t(Txn, AuditRecords),
            audit_bytes: t(Process, AuditBytes) - flushed(AuditBytes) + t(Txn, AuditBytes),
            audit_flushes: t(Process, AuditFlushes),
            audit_buffer_full_flushes: t(Process, AuditFullFlushes),
            txns_committed: t(Txn, TxnCommits),
            txns_aborted: t(Txn, TxnAborts),
            group_commit_piggybacks: t(Txn, CommitPiggybacks),
            lock_waits: t(Process, LockWaits),
            deadlocks: t(Process, LockDeadlocks),
            cpu_executor: t(System, CpuExecutor),
            cpu_fs: t(System, CpuFs),
            cpu_dp: t(System, CpuDp),
            dp_records_examined: t(File, RecsExamined),
            dp_records_selected: t(File, RecsSelected),
            subset_control_blocks: t(Scb, ScbCreated),
            rows_returned: t(System, RowsReturned),
            faults_injected: t(Process, FaultsInjected),
            msgs_timed_out: t(Process, MsgsTimeout),
            fs_retries: t(Cpu, RetryBackoffs),
            path_switches: t(Cpu, PathTakeovers),
            dp_dup_suppressed: t(Process, DupSuppressed),
            stmt_wait_cpu_us: w(Wait::Cpu),
            stmt_wait_msg_us: w(Wait::Msg),
            stmt_wait_disk_us: w(Wait::Disk),
            stmt_wait_lock_us: w(Wait::Lock),
            stmt_wait_commit_us: w(Wait::Commit),
            stmt_wait_retry_us: w(Wait::Retry),
            stmt_wait_restart_us: w(Wait::Restart),
            stmt_wait_admission_us: w(Wait::Admission),
            stmt_wait_other_us: w(Wait::Other),
        }
    }

    /// Per-category statement-wait totals in [`crate::clock::WAIT_CATEGORIES`]
    /// order (a [`crate::clock::WaitProfile`] reassembled from the counters).
    pub fn stmt_wait(&self) -> crate::clock::WaitProfile {
        crate::clock::WaitProfile {
            us: [
                self.stmt_wait_cpu_us,
                self.stmt_wait_msg_us,
                self.stmt_wait_disk_us,
                self.stmt_wait_lock_us,
                self.stmt_wait_commit_us,
                self.stmt_wait_retry_us,
                self.stmt_wait_restart_us,
                self.stmt_wait_admission_us,
                self.stmt_wait_other_us,
            ],
        }
    }

    /// Fraction of buffer-pool lookups that hit, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// FS-DP messages per row returned to the application.
    pub fn msgs_per_returned_row(&self) -> f64 {
        if self.rows_returned == 0 {
            0.0
        } else {
            self.msgs_fs_dp as f64 / self.rows_returned as f64
        }
    }

    /// Mean bytes carried per message exchange (request + reply).
    pub fn mean_bytes_per_message(&self) -> f64 {
        if self.msgs_total == 0 {
            0.0
        } else {
            self.msg_bytes_total as f64 / self.msgs_total as f64
        }
    }

    /// Audit bytes generated per committed transaction.
    pub fn audit_bytes_per_txn(&self) -> f64 {
        if self.txns_committed == 0 {
            0.0
        } else {
            self.audit_bytes as f64 / self.txns_committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuLayer, Sim};

    #[test]
    fn sub_saturates_on_out_of_order_snapshots() {
        let later = MetricsSnapshot {
            msgs_total: 10,
            ..MetricsSnapshot::default()
        };
        let earlier = MetricsSnapshot::default();
        assert_eq!((later - earlier).msgs_total, 10);
        // Subtracted the wrong way round, the delta clamps to zero instead
        // of panicking.
        assert_eq!((earlier - later).msgs_total, 0);
    }

    #[test]
    fn fields_sum_one_counter_over_one_entity_kind() {
        let sim = Sim::new();
        let before = sim.snapshot();
        sim.measure
            .entity(EntityKind::Cache, "$DATA1")
            .add(Ctr::CacheHits, 3);
        sim.measure
            .entity(EntityKind::Cache, "$DATA2")
            .add(Ctr::CacheHits, 4);
        // Another kind's counter of the same name is not summed in.
        sim.measure
            .entity(EntityKind::Process, "$DATA1")
            .add(Ctr::CacheHits, 100);
        sim.cpu_work(CpuLayer::DiskProcess, 5);
        let d = sim.snapshot() - before;
        assert_eq!(d.cache_hits, 7);
        assert_eq!(d.cpu_dp, 5);
        assert_eq!(d.cpu_fs, 0);
    }

    #[test]
    fn audit_volume_counts_generation_not_trail_flushes() {
        let sim = Sim::new();
        let vol = sim.measure.entity(EntityKind::Process, "$DATA1");
        vol.add(Ctr::AuditRecords, 5);
        vol.add(Ctr::AuditBytes, 500);
        let tmf = sim.measure.entity(EntityKind::Txn, "TMF");
        tmf.add(Ctr::AuditRecords, 1);
        tmf.add(Ctr::AuditBytes, 24);
        let trail = sim.measure.entity(EntityKind::Process, AUDIT_PROCESS);
        trail.add(Ctr::AuditRecords, 6);
        trail.add(Ctr::AuditBytes, 524);
        let s = sim.snapshot();
        assert_eq!(s.audit_records, 6);
        assert_eq!(s.audit_bytes, 524);
    }

    #[test]
    fn stmt_wait_fields_are_the_histogram_sums() {
        let sim = Sim::new();
        let mut wait = WaitProfile::default();
        wait.us[Wait::Disk.index()] = 70;
        sim.hist.record_stmt_wait(&wait);
        sim.hist.record_stmt_wait(&wait);
        let s = sim.snapshot();
        assert_eq!(s.stmt_wait_disk_us, 140);
        assert_eq!(s.stmt_wait().total(), 140);
    }

    #[test]
    fn derived_ratios() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.msgs_per_returned_row(), 0.0);
        assert_eq!(s.mean_bytes_per_message(), 0.0);
        assert_eq!(s.audit_bytes_per_txn(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.msgs_fs_dp = 10;
        s.rows_returned = 5;
        s.msgs_total = 4;
        s.msg_bytes_total = 1000;
        s.audit_bytes = 600;
        s.txns_committed = 3;
        assert_eq!(s.cache_hit_rate(), 0.75);
        assert_eq!(s.msgs_per_returned_row(), 2.0);
        assert_eq!(s.mean_bytes_per_message(), 250.0);
        assert_eq!(s.audit_bytes_per_txn(), 200.0);
    }

    #[test]
    fn iter_names_nonempty_and_display() {
        let s = MetricsSnapshot {
            rows_returned: 2,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.iter().count(), 48);
        let shown = format!("{s}");
        assert!(shown.contains("rows_returned"));
        assert!(!shown.contains("disk_reads"), "zero counters are hidden");
    }
}
