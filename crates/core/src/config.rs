//! SSD configuration and the paper's device profiles.

use nand::Geometry;
use simkit::Nanos;

/// How the DRAM write cache behaves when power is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProtection {
    /// Conventional SSD: the cache (and un-journalled mapping updates) are
    /// lost on a power cut; in-flight programs shear their pages.
    Volatile,
    /// DuraSSD: tantalum capacitors power the controller long enough to dump
    /// the cache and the modified mapping entries to the reserved dump
    /// blocks (§3.1, §3.4.1). Acknowledged writes always survive.
    CapacitorBacked,
}

/// Full device configuration.
///
/// The timing constants are calibration knobs; the three profile
/// constructors approximate the three SSDs of the paper's Table 1 and are
/// documented with the throughput shape they were tuned against.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfig {
    /// NAND geometry underneath the FTL.
    pub geometry: Geometry,
    /// Exported capacity in 4KB logical pages. Must leave over-provisioning
    /// headroom below the physical capacity.
    pub logical_capacity_pages: u64,
    /// Whether the DRAM write cache is enabled ("Storage Cache ON/OFF").
    pub cache_enabled: bool,
    /// Write-cache capacity in 4KB slots.
    pub cache_slots: usize,
    /// Cache durability model.
    pub protection: CacheProtection,
    /// Firmware + protocol overhead per host *write* command (ns).
    pub host_write_overhead: Nanos,
    /// Firmware + protocol overhead per host *read* command (ns).
    pub host_read_overhead: Nanos,
    /// SATA link bandwidth in bytes per microsecond (6Gbps ≈ 550).
    pub sata_bytes_per_us: u64,
    /// Fixed SATA bus occupancy per command besides data transfer (ns).
    pub sata_fixed: Nanos,
    /// Sustained backend (flusher→NAND) bandwidth cap in bytes per
    /// microsecond. Real controllers throttle concurrent programs for power
    /// and ECC-pipeline reasons; ~200MB/s matches the DuraSSD Table 2
    /// `nobarrier` row exactly (49k × 4KB ≈ 200MB/s).
    pub backend_bytes_per_us: u64,
    /// Firmware cost of a FLUSH CACHE besides draining the cache: mapping
    /// journal commit and metadata bookkeeping (ns).
    pub flush_fixed_cost: Nanos,
    /// Whether FLUSH CACHE also persists the mapping journal. Careful
    /// firmware does (SSD-A, DuraSSD); SSD-B journals lazily, which makes
    /// its flushes cheap — and is exactly the class of shortcut behind the
    /// power-fault anomalies of Zheng et al. (FAST 2013).
    pub persist_mapping_on_flush: bool,
    /// Background mapping-journal threshold: once this many mapping entries
    /// are modified, the firmware journals them to flash on its own (every
    /// FTL does this periodically, or a crash would lose the whole device).
    pub mapping_journal_threshold: usize,
    /// Free blocks per plane below which garbage collection kicks in.
    pub gc_free_threshold: usize,
    /// Blocks per plane reserved as the always-clean dump area (§3.4.1).
    pub dump_reserve_blocks: usize,
    /// How many bytes the capacitors can push to flash after a power cut.
    /// Zero for volatile devices.
    pub capacitor_energy_bytes: u64,
    /// Capacitor recharge time before recovery starts at reboot (§3.4.2).
    pub recharge_time: Nanos,
}

impl SsdConfig {
    fn base(blocks_per_plane: usize) -> Self {
        let geometry = Geometry::paper_example(blocks_per_plane);
        let physical_4k = geometry.capacity_bytes() / 4096;
        Self {
            geometry,
            // Export ~84% of raw capacity: the rest is over-provisioning
            // for GC plus the dump reserve.
            logical_capacity_pages: physical_4k * 84 / 100,
            cache_enabled: true,
            // The write buffer is a few MB of the 512MB DRAM (most of the
            // DRAM holds the mapping table, §3.1.2); 16MB here.
            cache_slots: 4096,
            protection: CacheProtection::Volatile,
            host_write_overhead: 55_000,
            host_read_overhead: 20_000,
            sata_bytes_per_us: 550,
            sata_fixed: 4_000,
            backend_bytes_per_us: 200,
            flush_fixed_cost: 2_500_000,
            persist_mapping_on_flush: true,
            mapping_journal_threshold: 1024,
            gc_free_threshold: 2,
            dump_reserve_blocks: 2,
            capacitor_energy_bytes: 0,
            recharge_time: 100_000_000, // 100ms
        }
    }

    /// The DuraSSD prototype: 512MB capacitor-backed cache, fast host path.
    /// Tuned against Table 1's DuraSSD rows (225 IOPS at fsync-every-write
    /// with barriers, ~15k IOPS with `nobarrier`).
    pub fn durassd(blocks_per_plane: usize) -> Self {
        Self {
            protection: CacheProtection::CapacitorBacked,
            host_write_overhead: 52_000,
            flush_fixed_cost: 3_000_000,
            // Enough to dump the cache high-water mark plus mapping delta.
            // The paper says "dozens of megabytes"; the flusher's flow
            // control keeps the dirty set under the water mark.
            capacitor_energy_bytes: 96 * 1024 * 1024,
            ..Self::base(blocks_per_plane)
        }
    }

    /// SSD-A: 512MB volatile cache; Table 1 shape 256 → 11.7k IOPS.
    pub fn ssd_a(blocks_per_plane: usize) -> Self {
        Self {
            host_write_overhead: 72_000,
            flush_fixed_cost: 2_500_000,
            ..Self::base(blocks_per_plane)
        }
    }

    /// SSD-B: 128MB volatile cache, cheaper flush firmware but slower host
    /// path; Table 1 shape 655 → 8.5k IOPS.
    pub fn ssd_b(blocks_per_plane: usize) -> Self {
        let mut cfg = Self {
            cache_slots: 1024, // 4MB write buffer of the 128MB DRAM
            host_write_overhead: 105_000,
            flush_fixed_cost: 600_000,
            persist_mapping_on_flush: false,
            ..Self::base(blocks_per_plane)
        };
        // SSD-B's flash programs faster than the paper-example MLC timing
        // (its cache-off numbers in Table 1 are ~2x SSD-A's).
        cfg.geometry.t_program = 600_000;
        cfg
    }

    /// A tiny configuration for unit tests: 2×1×1×2 geometry, small cache.
    pub fn tiny_test() -> Self {
        let geometry = Geometry::tiny(); // 4 planes × 16 blocks × 16 pages × 8KB
        let physical_4k = geometry.capacity_bytes() / 4096;
        Self {
            geometry,
            logical_capacity_pages: physical_4k / 2,
            cache_enabled: true,
            cache_slots: 16,
            protection: CacheProtection::CapacitorBacked,
            host_write_overhead: 50_000,
            host_read_overhead: 20_000,
            sata_bytes_per_us: 550,
            sata_fixed: 4_000,
            backend_bytes_per_us: 200,
            flush_fixed_cost: 1_000_000,
            persist_mapping_on_flush: true,
            mapping_journal_threshold: 64,
            gc_free_threshold: 2,
            dump_reserve_blocks: 1,
            capacitor_energy_bytes: 4 * 1024 * 1024,
            recharge_time: 1_000_000,
        }
    }

    /// Same tiny geometry but with a volatile cache (baseline behaviour).
    pub fn tiny_volatile() -> Self {
        Self {
            protection: CacheProtection::Volatile,
            capacitor_energy_bytes: 0,
            ..Self::tiny_test()
        }
    }

    /// Start a [`SsdConfigBuilder`] seeded from the generic volatile base
    /// profile at `blocks_per_plane`. Named profiles can be tweaked through
    /// [`SsdConfig::to_builder`] instead:
    ///
    /// ```
    /// use durassd::SsdConfig;
    /// let cfg = SsdConfig::builder(16).cache_slots(1024).build();
    /// let dura = SsdConfig::durassd(16).to_builder().cache_enabled(false).build();
    /// assert!(!dura.cache_enabled);
    /// ```
    pub fn builder(blocks_per_plane: usize) -> SsdConfigBuilder {
        SsdConfigBuilder { cfg: Self::base(blocks_per_plane) }
    }

    /// Re-open this config in a builder to tweak individual knobs.
    pub fn to_builder(self) -> SsdConfigBuilder {
        SsdConfigBuilder { cfg: self }
    }

    /// 4KB logical slots per physical NAND page (2 for 8KB NAND).
    pub fn slots_per_page(&self) -> usize {
        self.geometry.page_size / 4096
    }

    /// Check internal consistency, reporting the first violated constraint
    /// as an error. Includes the per-plane geometry headroom the FTL needs
    /// at construction — dump reserve, one meta block and one frontier per
    /// plane — so degenerate geometries fail here with a description
    /// instead of deep inside `Ftl::new`.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.geometry.page_size.is_multiple_of(4096) {
            return Err("NAND page must hold whole 4KB slots".into());
        }
        let physical_slots = self.geometry.total_pages() * self.slots_per_page() as u64;
        if self.logical_capacity_pages >= physical_slots {
            return Err(format!(
                "no over-provisioning: logical {} >= physical {}",
                self.logical_capacity_pages, physical_slots
            ));
        }
        // The FTL pops, per plane: `dump_reserve_blocks` dump blocks, one
        // meta block, one frontier block — in that order.
        let bpp = self.geometry.blocks_per_plane;
        if bpp < self.dump_reserve_blocks {
            return Err(format!(
                "plane too small for dump reserve: {bpp} blocks/plane < {} reserved",
                self.dump_reserve_blocks
            ));
        }
        if bpp < self.dump_reserve_blocks + 1 {
            return Err(format!(
                "plane too small for meta block: {bpp} blocks/plane leaves no room after {} \
                 dump blocks",
                self.dump_reserve_blocks
            ));
        }
        if bpp < self.dump_reserve_blocks + 2 {
            return Err(format!(
                "plane too small for frontier: {bpp} blocks/plane leaves no room after {} \
                 dump blocks and the meta block",
                self.dump_reserve_blocks
            ));
        }
        if self.dump_reserve_blocks + self.gc_free_threshold >= bpp {
            return Err(format!(
                "reserves exceed plane size: {} dump + {} GC headroom >= {bpp} blocks/plane",
                self.dump_reserve_blocks, self.gc_free_threshold
            ));
        }
        if self.protection == CacheProtection::CapacitorBacked && self.capacitor_energy_bytes == 0 {
            return Err("capacitor-backed cache needs energy".into());
        }
        if self.cache_slots as u64 >= self.logical_capacity_pages {
            return Err(format!(
                "write cache ({} slots) must be smaller than the exported capacity ({} pages)",
                self.cache_slots, self.logical_capacity_pages
            ));
        }
        Ok(())
    }

    /// Sanity-check internal consistency; called by `Ssd::new`.
    ///
    /// # Panics
    /// On the first violated constraint — see [`SsdConfig::try_validate`]
    /// for the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid SsdConfig: {e}");
        }
    }
}

/// Step-by-step construction of an [`SsdConfig`] with validation at the
/// end. Obtained from [`SsdConfig::builder`] (generic volatile base) or
/// [`SsdConfig::to_builder`] (tweak a named profile); [`build`](Self::build)
/// runs [`SsdConfig::validate`] before handing the config out.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfigBuilder {
    cfg: SsdConfig,
}

impl SsdConfigBuilder {
    /// Exported capacity in 4KB logical pages.
    pub fn logical_capacity_pages(mut self, pages: u64) -> Self {
        self.cfg.logical_capacity_pages = pages;
        self
    }

    /// Enable or disable the DRAM write cache ("Storage Cache ON/OFF").
    pub fn cache_enabled(mut self, on: bool) -> Self {
        self.cfg.cache_enabled = on;
        self
    }

    /// Write-cache capacity in 4KB slots.
    pub fn cache_slots(mut self, slots: usize) -> Self {
        self.cfg.cache_slots = slots;
        self
    }

    /// Cache durability model. Switching to
    /// [`CacheProtection::CapacitorBacked`] without also granting
    /// [`capacitor_energy_bytes`](Self::capacitor_energy_bytes) fails
    /// validation.
    pub fn protection(mut self, p: CacheProtection) -> Self {
        self.cfg.protection = p;
        self
    }

    /// Capacitor energy budget in bytes (0 for volatile devices).
    pub fn capacitor_energy_bytes(mut self, bytes: u64) -> Self {
        self.cfg.capacitor_energy_bytes = bytes;
        self
    }

    /// Background mapping-journal threshold (modified entries).
    pub fn mapping_journal_threshold(mut self, entries: usize) -> Self {
        self.cfg.mapping_journal_threshold = entries;
        self
    }

    /// Free blocks per plane below which GC kicks in.
    pub fn gc_free_threshold(mut self, blocks: usize) -> Self {
        self.cfg.gc_free_threshold = blocks;
        self
    }

    /// Blocks per plane reserved as the always-clean dump area (§3.4.1).
    pub fn dump_reserve_blocks(mut self, blocks: usize) -> Self {
        self.cfg.dump_reserve_blocks = blocks;
        self
    }

    /// Sustained backend bandwidth cap in bytes per microsecond.
    pub fn backend_bytes_per_us(mut self, bpu: u64) -> Self {
        self.cfg.backend_bytes_per_us = bpu;
        self
    }

    /// Blocks per plane in the NAND geometry (the degenerate-geometry
    /// validation cases need to shrink this below the FTL's reserves).
    pub fn blocks_per_plane(mut self, blocks: usize) -> Self {
        self.cfg.geometry.blocks_per_plane = blocks;
        self
    }

    /// Validate and produce the final [`SsdConfig`].
    ///
    /// # Panics
    /// If the configuration is inconsistent (page size not a 4KB multiple,
    /// no over-provisioning headroom, a plane too small for the FTL's dump/
    /// meta/frontier reserves, cache at least as large as the exported
    /// capacity, capacitor-backed cache without energy) — see
    /// [`SsdConfig::validate`]. Use [`try_build`](Self::try_build) for the
    /// non-panicking form.
    pub fn build(self) -> SsdConfig {
        self.cfg.validate();
        self.cfg
    }

    /// Validate and produce the final [`SsdConfig`], reporting the first
    /// violated constraint instead of panicking.
    pub fn try_build(self) -> Result<SsdConfig, String> {
        self.cfg.try_validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate() {
        SsdConfig::durassd(16).validate();
        SsdConfig::ssd_a(16).validate();
        SsdConfig::ssd_b(16).validate();
        SsdConfig::tiny_test().validate();
        SsdConfig::tiny_volatile().validate();
    }

    #[test]
    fn durassd_is_capacitor_backed_with_energy() {
        let c = SsdConfig::durassd(16);
        assert_eq!(c.protection, CacheProtection::CapacitorBacked);
        assert!(c.capacitor_energy_bytes > 0);
    }

    #[test]
    fn baselines_are_volatile() {
        assert_eq!(SsdConfig::ssd_a(16).protection, CacheProtection::Volatile);
        assert_eq!(SsdConfig::ssd_b(16).protection, CacheProtection::Volatile);
        assert!(SsdConfig::ssd_b(16).cache_slots < SsdConfig::ssd_a(16).cache_slots);
    }

    #[test]
    fn slots_per_page_is_two_for_8k_nand() {
        assert_eq!(SsdConfig::tiny_test().slots_per_page(), 2);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn overfull_logical_capacity_rejected() {
        let mut c = SsdConfig::tiny_test();
        c.logical_capacity_pages = u64::MAX;
        c.validate();
    }

    #[test]
    fn builder_tweaks_named_profile() {
        let cfg = SsdConfig::durassd(16).to_builder().cache_enabled(false).build();
        assert!(!cfg.cache_enabled);
        assert_eq!(cfg.protection, CacheProtection::CapacitorBacked);
        let base = SsdConfig::builder(16).cache_slots(512).build();
        assert_eq!(base.cache_slots, 512);
        assert_eq!(base.protection, CacheProtection::Volatile);
    }

    #[test]
    #[should_panic(expected = "needs energy")]
    fn builder_rejects_capacitor_cache_without_energy() {
        let _ = SsdConfig::builder(16).protection(CacheProtection::CapacitorBacked).build();
    }

    #[test]
    #[should_panic(expected = "smaller than the exported capacity")]
    fn builder_rejects_cache_larger_than_device() {
        let _ = SsdConfig::tiny_test().to_builder().cache_slots(1 << 20).build();
    }

    /// A tiny-geometry builder whose capacity/cache knobs are scaled down so
    /// the per-plane geometry checks are the first thing that can fail.
    fn small_plane_builder(bpp: usize) -> SsdConfigBuilder {
        SsdConfig::tiny_test()
            .to_builder()
            .blocks_per_plane(bpp)
            .logical_capacity_pages(8)
            .cache_slots(4)
            .gc_free_threshold(0)
    }

    #[test]
    fn geometry_without_room_for_dump_reserve_is_an_error() {
        let err = small_plane_builder(2).dump_reserve_blocks(3).try_build().unwrap_err();
        assert!(err.contains("plane too small for dump reserve"), "{err}");
    }

    #[test]
    fn geometry_without_room_for_meta_block_is_an_error() {
        let err = small_plane_builder(2).dump_reserve_blocks(2).try_build().unwrap_err();
        assert!(err.contains("plane too small for meta block"), "{err}");
    }

    #[test]
    fn geometry_without_room_for_frontier_is_an_error() {
        let err = small_plane_builder(3).dump_reserve_blocks(2).try_build().unwrap_err();
        assert!(err.contains("plane too small for frontier"), "{err}");
    }

    #[test]
    fn geometry_without_gc_headroom_is_an_error() {
        let err = small_plane_builder(4)
            .dump_reserve_blocks(2)
            .gc_free_threshold(2)
            .try_build()
            .unwrap_err();
        assert!(err.contains("reserves exceed plane size"), "{err}");
    }

    #[test]
    fn try_build_accepts_valid_configs() {
        let cfg = SsdConfig::tiny_test().to_builder().try_build().unwrap();
        assert_eq!(cfg.cache_slots, SsdConfig::tiny_test().cache_slots);
        assert!(SsdConfig::durassd(16).try_validate().is_ok());
    }
}
