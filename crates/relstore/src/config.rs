//! Engine configuration: the knobs the paper's experiments turn.

use wal::CheckpointPolicy;

/// Relational storage-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Database page size: 4096, 8192 or 16384 (the paper's tuning axis).
    pub page_size: usize,
    /// Buffer-pool size in bytes (converted to frames of `page_size`).
    pub buffer_pool_bytes: u64,
    /// InnoDB-style double-write buffer for torn-page protection. The
    /// `OFF` settings are only safe on a device with atomic page writes
    /// (DuraSSD §2.1).
    pub double_write: bool,
    /// PostgreSQL-style alternative to the double-write buffer (§2.1): log
    /// the full image of each page on its first modification after a
    /// checkpoint. Protects against torn pages at the cost of log volume.
    pub full_page_writes: bool,
    /// Write barriers on the *data* volume (fsync ⇒ device FLUSH CACHE).
    pub barriers: bool,
    /// Tablespace size in pages.
    pub data_pages: u64,
    /// Number of redo log files (paper: 3).
    pub log_files: usize,
    /// Size of each log file in 4KB blocks.
    pub log_file_blocks: u64,
    /// Double-write buffer area size in pages (InnoDB: 2MB).
    pub dwb_pages: u64,
    /// When [`Engine::needs_checkpoint`] should report true (and, for
    /// [`CheckpointPolicy::EveryNCommits`], when `commit` takes a
    /// checkpoint on its own). Defaults to the legacy 75%-of-log-capacity
    /// threshold.
    ///
    /// [`Engine::needs_checkpoint`]: crate::Engine::needs_checkpoint
    pub checkpoint_policy: CheckpointPolicy,
}

impl EngineConfig {
    /// MySQL-flavoured defaults at a given page size, scaled for simulation.
    pub fn mysql_like(page_size: usize) -> Self {
        Self {
            page_size,
            buffer_pool_bytes: 64 * 1024 * 1024,
            double_write: true,
            full_page_writes: false,
            barriers: true,
            data_pages: 0, // caller sizes the tablespace
            log_files: 3,
            log_file_blocks: 4096, // 16MB per file
            dwb_pages: (2 * 1024 * 1024 / page_size) as u64,
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// The commercial-DBMS configuration of §4.3.2: small buffer pool, no
    /// double-write buffer. Its O_DSYNC barrier-per-write is what every
    /// profile already does: one data-volume fsync seals each write call
    /// (eviction batch).
    pub fn commercial_like(page_size: usize) -> Self {
        Self {
            double_write: false,
            buffer_pool_bytes: 16 * 1024 * 1024,
            ..Self::mysql_like(page_size)
        }
    }

    /// Start a [`EngineConfigBuilder`] seeded from the MySQL-flavoured
    /// defaults at `page_size`. Call [`EngineConfigBuilder::build`] to
    /// validate and obtain the config:
    ///
    /// ```
    /// use relstore::EngineConfig;
    /// let cfg = EngineConfig::builder(4096).data_pages(8192).barriers(false).build();
    /// assert!(!cfg.barriers);
    /// ```
    pub fn builder(page_size: usize) -> EngineConfigBuilder {
        EngineConfigBuilder { cfg: Self::mysql_like(page_size) }
    }

    /// Re-open this config in a builder to tweak individual knobs.
    pub fn to_builder(self) -> EngineConfigBuilder {
        EngineConfigBuilder { cfg: self }
    }

    /// Buffer-pool frames implied by the byte budget.
    pub fn pool_frames(&self) -> usize {
        ((self.buffer_pool_bytes / self.page_size as u64) as usize).max(4)
    }

    /// Bytes of log the files hold: every 4KB block but the header.
    pub(crate) fn log_capacity_bytes(&self) -> u64 {
        (self.log_files as u64 * self.log_file_blocks - 1) * 4096
    }

    /// Check internal consistency; called by the engine constructor.
    pub fn validate(&self) {
        assert!(matches!(self.page_size, 4096 | 8192 | 16384), "page size must be 4, 8 or 16KB");
        assert!(self.data_pages > 8, "tablespace too small");
        assert!(self.data_pages <= u32::MAX as u64, "page trailer holds a 32-bit page number");
        assert!(self.log_files >= 1 && self.log_file_blocks >= 4, "log too small");
        // The eighth of the data area above `needs_checkpoint`'s 7/8 guard
        // must take the largest record a routine operation logs before the
        // checkpoint it asked for happens: a leaf split's sidecar (both
        // halves and the parent, less their trailers, plus 80 framing bytes).
        let headroom = self.log_capacity_bytes() / 8;
        let sidecar = 3 * self.page_size as u64 + 32;
        assert!(
            headroom >= sidecar,
            "log too small: the {headroom} bytes above its 7/8 overflow guard cannot hold \
             the {sidecar}-byte page-image sidecar of one leaf split"
        );
        assert!(self.dwb_pages >= 1, "double-write area too small");
        // A write batch goes to the area as one contiguous run.
        assert!(
            !self.double_write || self.dwb_pages >= bufferpool::WRITE_BATCH as u64,
            "double-write area of {} pages cannot hold one write batch of {} pages",
            self.dwb_pages,
            bufferpool::WRITE_BATCH
        );
        assert!(
            self.buffer_pool_bytes >= 4 * self.page_size as u64,
            "buffer pool must hold at least 4 pages"
        );
        self.checkpoint_policy.validate();
    }
}

/// Step-by-step construction of an [`EngineConfig`] with validation at the
/// end. Obtained from [`EngineConfig::builder`] (MySQL-flavoured seed) or
/// [`EngineConfig::to_builder`] (tweak an existing profile); every knob has
/// a chainable setter and [`build`](Self::build) runs
/// [`EngineConfig::validate`] before handing the config out.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Buffer-pool budget in bytes.
    pub fn buffer_pool_bytes(mut self, bytes: u64) -> Self {
        self.cfg.buffer_pool_bytes = bytes;
        self
    }

    /// InnoDB-style double-write buffer on/off.
    pub fn double_write(mut self, on: bool) -> Self {
        self.cfg.double_write = on;
        self
    }

    /// PostgreSQL-style full-page writes on/off.
    pub fn full_page_writes(mut self, on: bool) -> Self {
        self.cfg.full_page_writes = on;
        self
    }

    /// Write barriers on the data volume (fsync ⇒ FLUSH CACHE).
    pub fn barriers(mut self, on: bool) -> Self {
        self.cfg.barriers = on;
        self
    }

    /// Tablespace size in pages.
    pub fn data_pages(mut self, pages: u64) -> Self {
        self.cfg.data_pages = pages;
        self
    }

    /// Number of redo log files.
    pub fn log_files(mut self, n: usize) -> Self {
        self.cfg.log_files = n;
        self
    }

    /// Size of each log file in 4KB blocks.
    pub fn log_file_blocks(mut self, blocks: u64) -> Self {
        self.cfg.log_file_blocks = blocks;
        self
    }

    /// Double-write buffer area size in pages.
    pub fn dwb_pages(mut self, pages: u64) -> Self {
        self.cfg.dwb_pages = pages;
        self
    }

    /// Install a full [`CheckpointPolicy`].
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.cfg.checkpoint_policy = policy;
        self
    }

    /// Checkpoint every `n` commits (shorthand for
    /// [`CheckpointPolicy::EveryNCommits`]; the engine takes the checkpoint
    /// itself inside `commit`). `build` rejects `n == 0`.
    pub fn checkpoint_every_n_commits(mut self, n: u64) -> Self {
        self.cfg.checkpoint_policy = CheckpointPolicy::EveryNCommits(n);
        self
    }

    /// Validate and produce the final [`EngineConfig`].
    ///
    /// # Panics
    /// If the configuration is inconsistent (bad page size, tablespace or
    /// log too small, undersized buffer pool, a double-write area smaller
    /// than one write batch) — see
    /// [`EngineConfig::validate`].
    pub fn build(self) -> EngineConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let mut c = EngineConfig::mysql_like(16384);
        c.data_pages = 1024;
        c.validate();
        let mut c = EngineConfig::commercial_like(4096);
        c.data_pages = 1024;
        c.validate();
        assert!(!c.double_write && c.pool_frames() == 4096);
    }

    #[test]
    fn pool_frames_from_bytes() {
        let mut c = EngineConfig::mysql_like(4096);
        c.buffer_pool_bytes = 40960;
        assert_eq!(c.pool_frames(), 10);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn odd_page_size_rejected() {
        let mut c = EngineConfig::mysql_like(5000);
        c.data_pages = 1024;
        c.validate();
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let cfg = EngineConfig::builder(8192)
            .data_pages(2048)
            .barriers(false)
            .double_write(false)
            .buffer_pool_bytes(1 << 20)
            .log_file_blocks(512)
            .build();
        assert_eq!(cfg.page_size, 8192);
        assert!(!cfg.barriers && !cfg.double_write);
        // to_builder preserves everything not overridden.
        let cfg2 = cfg.to_builder().barriers(true).build();
        assert!(cfg2.barriers);
        assert_eq!(cfg2.data_pages, 2048);
    }

    #[test]
    #[should_panic(expected = "buffer pool")]
    fn builder_rejects_undersized_pool() {
        let _ = EngineConfig::builder(16384).data_pages(2048).buffer_pool_bytes(1024).build();
    }

    #[test]
    #[should_panic(expected = "double-write area of 8 pages cannot hold one write batch of 16")]
    fn builder_rejects_double_write_area_smaller_than_a_batch() {
        let _ = EngineConfig::builder(4096).data_pages(2048).dwb_pages(8).build();
    }

    #[test]
    fn double_write_area_of_one_batch_or_unused_is_accepted() {
        let cfg = EngineConfig::builder(4096).data_pages(2048).dwb_pages(16).build();
        assert!(cfg.double_write);
        // With double-write off nothing is written to the area.
        EngineConfig::builder(4096).data_pages(2048).dwb_pages(8).double_write(false).build();
    }

    /// A 16 KiB root image against a 12 KiB log: no checkpoint could make
    /// room for it, and `create_tree` would overflow the log.
    #[test]
    #[should_panic(expected = "the 1536 bytes above its 7/8 overflow guard cannot hold \
                               the 49184-byte page-image sidecar")]
    fn log_that_cannot_hold_one_structural_record_is_rejected() {
        EngineConfig {
            log_files: 1,
            log_file_blocks: 4,
            data_pages: 64,
            double_write: false,
            buffer_pool_bytes: 32 * 16384,
            ..EngineConfig::mysql_like(16384)
        }
        .validate();
    }

    #[test]
    fn smallest_log_in_use_still_validates() {
        // `relstore/src/lib.rs`'s small-log tests: one file of 64 blocks.
        EngineConfig::builder(4096).data_pages(512).log_files(1).log_file_blocks(64).build();
    }

    #[test]
    #[should_panic(expected = "tablespace")]
    fn builder_requires_tablespace_sizing() {
        let _ = EngineConfig::builder(4096).build(); // data_pages never set
    }

    #[test]
    fn checkpoint_knobs_build_policies() {
        let cfg =
            EngineConfig::builder(4096).data_pages(1024).checkpoint_every_n_commits(128).build();
        assert_eq!(cfg.checkpoint_policy, CheckpointPolicy::EveryNCommits(128));
        let cfg = EngineConfig::builder(4096)
            .data_pages(1024)
            .checkpoint_policy(CheckpointPolicy::Explicit)
            .build();
        assert_eq!(cfg.checkpoint_policy, CheckpointPolicy::Explicit);
    }

    #[test]
    #[should_panic(expected = "checkpoint threshold")]
    fn builder_rejects_absurd_threshold() {
        let _ = EngineConfig::builder(4096)
            .data_pages(1024)
            .checkpoint_policy(CheckpointPolicy::LiveBytesPct(0))
            .build();
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn builder_rejects_zero_commit_interval() {
        let _ = EngineConfig::builder(4096).data_pages(1024).checkpoint_every_n_commits(0).build();
    }
}
