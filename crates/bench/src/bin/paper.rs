//! **paper** — every table and figure of the paper's evaluation, measured
//! beside the paper's own numbers and checked against its shape claims.
//!
//! One static table per experiment ([`EXPERIMENTS`]): column heads, and per
//! row the paper's values and the parameters of the cell it runs. Four cell
//! paths shared with the other bins do the work — `bench::fio_grid_cell`
//! (Tables 1, 2), `bench::linkbench_cell` (Fig. 5, Fig. 6 and Table 3 read
//! different fields of the same runs), `bench::tpcc_sized_config` (Table 4)
//! and `bench::ycsb_cell_config` (Table 5). One renderer prints the human grid; one
//! `durassd.paper.v1` document carries every measured cell beside the
//! paper's value and its relative error, plus every shape claim of
//! [`bench::schema::PAPER_CLAIMS`] as `{id, text, measured, expect, holds}`.
//! Everything is deterministic: the document has no wall-clock field, so the
//! checked-in `BENCH_paper.json` is also the golden `ci.sh` compares with.
//!
//! Flags: positional experiment ids (`table1 table2 fig5 fig6 table3 table4
//! table5`; default all), `--scale-pct N` (default 100: op counts and data
//! sizes as a percentage of the checked-in run), `--out PATH` (write the
//! document), `--check` (validate it; exit non-zero when a claim expected to
//! hold fails or a written-down divergence stops diverging — the claims are
//! stated for scale 100; at a few percent the disk's cache never fills and
//! several fail), `--telemetry-out PATH`.
//!
//! Run: `cargo run -p bench --release --bin paper -- --out BENCH_paper.json --check`

use bench::schema::{
    check_paper_report, write_paper_claims, PaperTable, PAPER_CLAIMS, PAPER_IDS, PAPER_SCHEMA,
};
use bench::{
    arg_str, arg_u64, durassd_bench, durassd_engine, exit_usage, finish_report, fio_grid_cell,
    fmt_rate, hdd_bench, linkbench_cell, observed_ssd, print_telemetry, rule, ssd_a_bench,
    ssd_b_bench, tpcc_sized_config, ycsb_cell_config, LinkCell, TelemetrySink,
};
use docstore::DocStore;
use relstore::EngineConfig;
use simkit::json::Writer;
use simkit::stats::Summary;
use std::collections::BTreeMap;
use telemetry::Telemetry;
use workloads::fio::{FioOp, FioSpec};
use workloads::linkbench::OpType;
use workloads::ycsb::YcsbSpec;
use workloads::{tpcc, ycsb};

#[derive(Clone, Copy)]
enum Dev {
    Hdd,
    SsdA,
    SsdB,
    DuraSsd,
}
use Dev::*;

/// The paper's own spelling of a setting, for the rows below.
const ON: bool = true;
const OFF: bool = false;

/// What a row runs in each of its columns. The column value is the axis of
/// the row's grid: writes per fsync, page size in bytes, buffer pool as a
/// percentage of the database, or updates per fsync batch.
#[derive(Clone, Copy)]
enum Cell {
    /// Table 1, `(device, storage cache, barriers)`: one job of 4 KB random
    /// writes with an fsync every `col` writes (0: never).
    Fsync(Dev, bool, bool),
    /// Table 2, `(device, op, jobs, writes per fsync, barriers)`: random
    /// `col`-byte reads or writes.
    PageSize(Dev, FioOp, usize, Option<u32>, bool),
    /// Fig. 5, `(barriers, double-write)`: LinkBench TPS at page size `col`.
    Link(bool, bool),
    /// Fig. 6 (a), `(page size)`: buffer miss ratio of LinkBench OFF/OFF
    /// with a pool of `col` % of the database.
    PoolMiss(usize),
    /// Fig. 6 (b): TPS of the same run.
    PoolTps(usize),
    /// Table 4, `(barriers)`: TPC-C tpmC at page size `col`.
    Tpcc(bool),
    /// Table 5, `(barriers, update %)`: YCSB ops/s with an fsync every `col`
    /// updates.
    Ycsb(bool, u32),
}
use Cell::*;

struct Row<const N: usize> {
    label: &'static str,
    cell: Cell,
    /// The paper's value per column, where it prints one.
    paper: Option<[u64; N]>,
}

const fn row<const N: usize>(label: &'static str, cell: Cell, paper: Option<[u64; N]>) -> Row<N> {
    Row { label, cell, paper }
}

/// One table or figure: `N` columns, so a paper row of the wrong width does
/// not compile.
struct Grid<const N: usize> {
    id: &'static str,
    title: &'static str,
    unit: &'static str,
    heads: [&'static str; N],
    cols: [u64; N],
    /// Latency histograms worth a line under each row's segment mix.
    hists: &'static [&'static str],
    rows: &'static [Row<N>],
}

const PAGE_HEADS: [&str; 3] = ["16KB", "8KB", "4KB"];
const PAGE_SIZES: [u64; 3] = [16384, 8192, 4096];

static TABLE1: Grid<9> = Grid {
    id: "table1",
    title: "Table 1: 4KB random-write IOPS vs writes per fsync",
    unit: "IOPS",
    heads: ["1", "4", "8", "16", "32", "64", "128", "256", "none"],
    cols: [1, 4, 8, 16, 32, 64, 128, 256, 0],
    hists: &["dev.fio.write", "dev.fio.flush"],
    rows: &[
        row("HDD OFF", Fsync(Hdd, OFF, ON), Some([58, 111, 130, 143, 151, 155, 156, 157, 158])),
        row("HDD ON", Fsync(Hdd, ON, ON), Some([59, 135, 184, 234, 251, 335, 375, 381, 387])),
        row("SSD-A OFF", Fsync(SsdA, OFF, ON), Some([168, 332, 397, 441, 463, 479, 480, 490, 494])),
        row(
            "SSD-A ON",
            Fsync(SsdA, ON, ON),
            Some([256, 759, 1297, 2219, 3595, 5094, 6794, 8782, 11681]),
        ),
        row(
            "SSD-B OFF",
            Fsync(SsdB, OFF, ON),
            Some([603, 732, 889, 995, 1042, 1082, 1114, 1124, 1157]),
        ),
        row(
            "SSD-B ON",
            Fsync(SsdB, ON, ON),
            Some([655, 1762, 2319, 3152, 4046, 5177, 6318, 8575, 8456]),
        ),
        row(
            "DuraSSD OFF",
            Fsync(DuraSsd, OFF, ON),
            Some([249, 330, 438, 467, 482, 490, 495, 497, 498]),
        ),
        row(
            "DuraSSD ON",
            Fsync(DuraSsd, ON, ON),
            Some([225, 836, 1556, 2556, 5020, 6969, 10582, 12647, 15319]),
        ),
        row(
            "DuraSSD NoBarrier",
            Fsync(DuraSsd, ON, OFF),
            Some([14484, 14800, 14813, 14824, 14840, 14863, 15063, 15181, 15458]),
        ),
    ],
};

static TABLE2: Grid<3> = Grid {
    id: "table2",
    title: "Table 2: effect of page size on IOPS, (a) DuraSSD (b) 15krpm disk",
    unit: "IOPS",
    heads: PAGE_HEADS,
    cols: PAGE_SIZES,
    hists: &["dev.fio.read", "dev.fio.write", "dev.fio.flush"],
    rows: &[
        row(
            "DuraSSD read 128 thr",
            PageSize(DuraSsd, FioOp::Read, 128, None, ON),
            Some([29_870, 57_847, 89_083]),
        ),
        row(
            "DuraSSD write fsync-1",
            PageSize(DuraSsd, FioOp::Write, 1, Some(1), ON),
            Some([196, 206, 225]),
        ),
        row(
            "DuraSSD write fsync-256",
            PageSize(DuraSsd, FioOp::Write, 1, Some(256), ON),
            Some([4_563, 7_978, 12_647]),
        ),
        row(
            "DuraSSD write 128 thr nobarrier",
            PageSize(DuraSsd, FioOp::Write, 128, Some(1), OFF),
            Some([13_446, 25_546, 49_009]),
        ),
        row("HDD read 128 thr", PageSize(Hdd, FioOp::Read, 128, None, ON), Some([516, 528, 538])),
        row("HDD write 128 thr", PageSize(Hdd, FioOp::Write, 128, None, ON), Some([428, 439, 444])),
    ],
};

/// Paper values are approximate bar heights read off the figure.
static FIG5: Grid<3> = Grid {
    id: "fig5",
    title: "Figure 5: LinkBench TPS, write barrier / double-write buffer, 128 clients",
    unit: "TPS",
    heads: PAGE_HEADS,
    cols: PAGE_SIZES,
    hists: &["engine.commit", "engine.get"],
    rows: &[
        row("ON/ON", Link(ON, ON), Some([1_500, 2_700, 2_500])),
        row("ON/OFF", Link(ON, OFF), Some([3_100, 5_300, 4_900])),
        row("OFF/ON", Link(OFF, ON), Some([11_000, 17_000, 26_000])),
        row("OFF/OFF", Link(OFF, OFF), Some([14_000, 21_000, 33_000])),
    ],
};

/// The paper prints no numbers for Fig. 6 (miss ratio ~8.5 % .. 3.5 %, 4 KB
/// lowest; TPS rising, 4 KB highest, no saturation). The buffer axis is a
/// percentage of the database: the paper's 2-10 GB against 100 GB.
static FIG6: Grid<5> = Grid {
    id: "fig6",
    title: "Figure 6: LinkBench (a) buffer miss ratio and (b) TPS vs buffer pool size, OFF/OFF",
    unit: "miss % / TPS",
    heads: ["2%", "4%", "6%", "8%", "10%"],
    cols: [2, 4, 6, 8, 10],
    hists: &["engine.commit", "engine.get", "pool.miss_stall"],
    rows: &[
        row("miss % 16KB", PoolMiss(16384), None),
        row("miss % 8KB", PoolMiss(8192), None),
        row("miss % 4KB", PoolMiss(4096), None),
        row("TPS 16KB", PoolTps(16384), None),
        row("TPS 8KB", PoolTps(8192), None),
        row("TPS 4KB", PoolTps(4096), None),
    ],
};

static TABLE4: Grid<3> = Grid {
    id: "table4",
    title: "Table 4: TPC-C tpmC, commercial-DBMS configuration (O_DSYNC page writes)",
    unit: "tpmC",
    heads: PAGE_HEADS,
    cols: PAGE_SIZES,
    hists: &["engine.commit", "engine.put"],
    rows: &[
        row("Barrier On", Tpcc(ON), Some([4_291, 4_845, 7_729])),
        row("Barrier Off", Tpcc(OFF), Some([65_809, 110_400, 150_815])),
    ],
};

static TABLE5: Grid<5> = Grid {
    id: "table5",
    title: "Table 5: Couchbase/YCSB-A ops/s vs updates per fsync batch",
    unit: "ops/s",
    heads: ["1", "2", "5", "10", "100"],
    cols: [1, 2, 5, 10, 100],
    hists: &["doc.commit", "doc.set", "doc.get"],
    rows: &[
        row("barrier ON, update 100%", Ycsb(ON, 100), Some([206, 398, 988, 1_954, 4_692])),
        row("barrier ON, update 50%", Ycsb(ON, 50), Some([195, 390, 1_400, 2_041, 4_921])),
        row("barrier OFF, update 100%", Ycsb(OFF, 100), Some([2_404, 3_464, 3_826, 4_959, 5_101])),
        row("barrier OFF, update 50%", Ycsb(OFF, 50), Some([2_406, 3_464, 4_209, 5_461, 6_208])),
    ],
};

/// The evaluation, in [`PAPER_IDS`] order (Table 3 after Fig. 5, whose corner
/// runs it reads).
const EXPERIMENTS: [fn(&mut Ctx) -> Section; 7] = [
    |c| c.grid(&TABLE1),
    |c| c.grid(&TABLE2),
    |c| c.grid(&FIG5),
    |c| c.grid(&FIG6),
    Ctx::table3,
    |c| c.grid(&TABLE4),
    |c| c.grid(&TABLE5),
];

/// What the experiments read off one finished LinkBench run.
struct LinkRun {
    tps: f64,
    miss_pct: f64,
    per_type: Vec<(OpType, Summary)>,
}

/// One measured row: `(value, decimals)` per column. Values are held as the
/// document prints them, so the claims see the same numbers as a reader.
struct MeasuredRow {
    label: String,
    cells: Vec<(f64, usize)>,
    paper: Option<Vec<u64>>,
    /// The row's telemetry, when the row ran cells of its own.
    tel: Option<Telemetry>,
}

/// One measured experiment, ready to render and to write.
struct Section {
    id: &'static str,
    title: &'static str,
    unit: &'static str,
    heads: Vec<&'static str>,
    hists: &'static [&'static str],
    rows: Vec<MeasuredRow>,
}

/// `v` as the document prints it with `decimals` places.
fn as_printed(v: f64, decimals: usize) -> (f64, usize) {
    (format!("{v:.decimals$}").parse().expect("a formatted float parses"), decimals)
}

/// A telemetry domain with the latency anatomy on, so the segment mix has
/// data to read.
fn anatomy_telemetry() -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(1);
    tel
}

/// One raw-device cell on a fresh `dev` with `tel` attached to it.
fn fio(dev: Dev, cache: bool, barriers: bool, spec: FioSpec, tel: &Telemetry) -> f64 {
    let ssd = |dev| fio_grid_cell(observed_ssd(dev, tel), barriers, spec, tel);
    match dev {
        Hdd => {
            let mut dev = hdd_bench(cache);
            dev.attach_telemetry(tel.clone());
            fio_grid_cell(dev, barriers, spec, tel)
        }
        SsdA => ssd(ssd_a_bench(cache)),
        SsdB => ssd(ssd_b_bench(cache)),
        DuraSsd => ssd(durassd_bench(cache)),
    }
}

struct Ctx {
    scale_pct: u64,
    /// Finished LinkBench runs by their parameters: Fig. 6 (b) and Table 3
    /// read runs another row already made.
    links: BTreeMap<LinkCell, LinkRun>,
    /// Cells run so far (not served from `links`).
    cells_run: u64,
    sink: TelemetrySink,
}

impl Ctx {
    /// `base` at `--scale-pct`.
    fn scaled(&self, base: u64) -> u64 {
        (base * self.scale_pct / 100).max(1)
    }

    fn link(&mut self, cell: LinkCell, tel: &Telemetry) -> &LinkRun {
        self.links.entry(cell).or_insert_with(|| {
            self.cells_run += 1;
            let (rep, engine) = linkbench_cell(&cell, tel);
            LinkRun { tps: rep.tps, miss_pct: engine.miss_ratio() * 100.0, per_type: rep.per_type }
        })
    }

    /// The Fig. 5 cell at this scale.
    fn fig5_cell(&self, barriers: bool, double_write: bool, page_size: usize) -> LinkCell {
        LinkCell::fig5(barriers, double_write, page_size, self.scaled(60_000), self.scaled(30_000))
    }

    /// Run (or look up) one cell; the value as the document prints it.
    fn run(&mut self, cell: Cell, col: u64, tel: &Telemetry) -> (f64, usize) {
        if !matches!(cell, Link(..) | PoolMiss(_) | PoolTps(_)) {
            self.cells_run += 1;
        }
        let rate = match cell {
            Fsync(dev, cache, barriers) => {
                let base = self.scaled(20_000);
                let fsync_every = (col > 0).then_some(col as u32);
                // Slow cells (mechanical or flush-per-write) need fewer ops
                // for a stable mean; the disk's 4096-page cache must saturate
                // for sustained rates, so its sparse-fsync cells run in full.
                let ops = match (dev, fsync_every) {
                    (Hdd, Some(n)) if n < 64 => base / 10,
                    (Hdd, _) => base,
                    (_, Some(n)) if n <= 8 => base / 4,
                    _ => base,
                };
                fio(dev, cache, barriers, FioSpec::random_write_4k(0, fsync_every, ops), tel)
            }
            PageSize(dev, op, jobs, fsync_every, barriers) => {
                let base = self.scaled(30_000);
                // Mechanical reads and flush-per-write cells are slow and
                // steady; disk writes must fill the 16MB cache to reach the
                // sustained destage rate.
                let total_ops = match (dev, op) {
                    (Hdd, FioOp::Read) => base / 6,
                    (Hdd, FioOp::Write) => base * 2,
                    _ if fsync_every == Some(1) && barriers => base / 6,
                    _ => base,
                };
                let spec = FioSpec {
                    op,
                    block_size: col as usize,
                    fsync_every,
                    jobs,
                    total_ops,
                    seed: 0x22,
                    span_blocks: 0,
                };
                fio(dev, ON, barriers, spec, tel)
            }
            Link(barriers, double_write) => {
                let cell = self.fig5_cell(barriers, double_write, col as usize);
                self.link(cell, tel).tps
            }
            PoolMiss(page_size) | PoolTps(page_size) => {
                let ops = self.scaled(20_000);
                let link = LinkCell {
                    pool_pct: col,
                    warmup_ops: ops / 4,
                    // Lighter software cost than the Fig. 5 calibration so
                    // the I/O effects of the buffer sweep are visible above
                    // the CPU floor.
                    cpu_per_op: 250_000,
                    ..LinkCell::fig5(OFF, OFF, page_size, self.scaled(60_000), ops)
                };
                let run = self.link(link, tel);
                if matches!(cell, PoolMiss(_)) {
                    return as_printed(run.miss_pct, 2);
                }
                run.tps
            }
            Tpcc(barriers) => {
                let base = self.scaled(20_000);
                let txns = if barriers { base / 4 } else { base };
                // The commercial engine of §4.3.2 opens files with O_DSYNC (a
                // barrier request for every page write) and runs 64 terminals
                // on a buffer that is a small fraction of the database (the
                // paper's 2 GB : 100 GB).
                let profile =
                    EngineConfig { barriers, ..EngineConfig::commercial_like(col as usize) };
                let (spec, cfg) =
                    tpcc_sized_config(profile, 64, (5, 1536 * 1024), self.scaled(8) as u32, txns);
                let (mut engine, t0) = durassd_engine(cfg, tel);
                let (mut db, t1) = tpcc::load(&mut engine, &spec, t0);
                engine.attach_telemetry(tel.clone()); // after load: measure the run only
                tpcc::run(&mut engine, &mut db, &spec, t1).tpmc
            }
            Ycsb(barriers, update_pct) => {
                let base = self.scaled(20_000);
                let ops = if barriers && col <= 2 { base / 4 } else { base };
                let dev = observed_ssd(durassd_bench(ON), tel);
                let mut store = DocStore::create(dev, ycsb_cell_config(barriers, col as u32));
                let spec = YcsbSpec {
                    update_fraction: f64::from(update_pct) / 100.0,
                    ..YcsbSpec::workload_a(self.scaled(20_000), ops)
                };
                let t = ycsb::load(&mut store, &spec, 0);
                store.attach_telemetry(tel.clone()); // after load: measure the run only
                ycsb::run(&mut store, &spec, t).throughput()
            }
        };
        as_printed(rate, 0)
    }

    /// Measure one grid. Each row gets one telemetry domain: the segment mix
    /// is a property of the row's device and barrier setting, aggregated
    /// across its columns.
    fn grid<const N: usize>(&mut self, g: &'static Grid<N>) -> Section {
        let mut rows = Vec::new();
        for r in g.rows {
            let (tel, cells_before) = (anatomy_telemetry(), self.cells_run);
            let cells = g.cols.iter().map(|&col| self.run(r.cell, col, &tel)).collect();
            let ran = self.cells_run > cells_before;
            if ran {
                self.sink.add(&format!("{} {}", g.id, r.label), &tel);
            }
            rows.push(MeasuredRow {
                label: r.label.to_string(),
                cells,
                paper: r.paper.map(|p| p.to_vec()),
                tel: ran.then_some(tel),
            });
        }
        let heads = g.heads.to_vec();
        Section { id: g.id, title: g.title, unit: g.unit, heads, hists: g.hists, rows }
    }

    /// Table 3: the per-op-type latency distributions of Fig. 5's two corner
    /// runs, the MySQL default against the DuraSSD deployment. The paper's
    /// headline is the improvement between them (mean 5-45x, P99 ~100x), so
    /// the document carries the distributions and the claims the factors.
    fn table3(&mut self) -> Section {
        const MS: f64 = 1e6;
        let mut rows = Vec::new();
        for (config, barriers, double_write, page_size) in
            [("ON/ON 16KB", ON, ON, 16384), ("OFF/OFF 4KB", OFF, OFF, 4096)]
        {
            let cell = self.fig5_cell(barriers, double_write, page_size);
            for (op, s) in &self.link(cell, &anatomy_telemetry()).per_type {
                let ns =
                    [s.mean, s.p25 as f64, s.p50 as f64, s.p75 as f64, s.p99 as f64, s.max as f64];
                let mut cells = vec![as_printed(s.count as f64, 0)];
                cells.extend(ns.map(|ns| as_printed(ns / MS, 1)));
                let label = format!("{config} {}", op.label());
                rows.push(MeasuredRow { label, cells, paper: None, tel: None });
            }
        }
        Section {
            id: "table3",
            title: "Table 3: LinkBench latency distribution per op type, \
                    MySQL default vs DuraSSD deployment",
            unit: "count, then ms",
            heads: vec!["count", "mean", "p25", "p50", "p75", "p99", "max"],
            hists: &[],
            rows,
        }
    }
}

impl Section {
    /// The claims' view of the section.
    fn table(&self) -> PaperTable {
        let mut table = PaperTable::default();
        for r in &self.rows {
            let paper = match &r.paper {
                Some(p) => p.iter().map(|&p| p as f64).collect(),
                None => vec![f64::NAN; r.cells.len()],
            };
            table.push(&r.label, r.cells.iter().map(|c| c.0).collect(), paper);
        }
        table
    }

    /// The human grid: per row the measured cells, the paper's under them,
    /// then where the row's time went; then what the claims say of `table`.
    fn print(&self, table: &PaperTable) {
        const COL: usize = 10;
        let label_w = self.rows.iter().map(|r| r.label.len()).max().unwrap_or(0) + 2;
        let line = |label: &str, cells: Vec<String>| {
            let cells: String = cells.iter().map(|c| format!("{c:>COL$}")).collect();
            format!("{label:<label_w$}{cells}")
        };
        println!("\n{} [{}]", self.title, self.unit);
        println!("{}", line("", self.heads.iter().map(|h| h.to_string()).collect()));
        rule(label_w + COL * self.heads.len());
        for r in &self.rows {
            let cell = |&(v, decimals): &(f64, usize)| match decimals {
                0 => fmt_rate(v),
                _ => format!("{v:.decimals$}"),
            };
            println!("{}", line(&r.label, r.cells.iter().map(cell).collect()));
            if let Some(paper) = &r.paper {
                let paper = paper.iter().map(|&p| fmt_rate(p as f64)).collect();
                println!("{}   <- paper", line("", paper));
            }
            if let Some(tel) = &r.tel {
                print_telemetry("      ", tel, self.hists);
            }
        }
        for claim in PAPER_CLAIMS.iter().filter(|c| c.experiment() == self.id) {
            let (measured, holds) = claim.eval(table);
            let verdict = match (holds, claim.diverges) {
                (true, None) => "holds",
                (false, Some(_)) => "diverges, as noted",
                (false, None) => "FAILS",
                (true, Some(_)) => "HOLDS, note is stale",
            };
            println!("  [{verdict}] {}: {} (measured {measured:.4})", claim.id, claim.text);
            if let Some(reason) = claim.diverges {
                println!("      why it diverges: {reason}");
            }
        }
    }

    /// The section's `durassd.paper.v1` experiment object.
    fn write(&self, w: &mut Writer, table: &PaperTable) {
        w.obj().key("id").str(self.id).key("title").str(self.title);
        w.key("unit").str(self.unit).key("rows").arr();
        for r in &self.rows {
            w.obj().key("label").str(&r.label).key("cells").arr();
            for (i, &(v, decimals)) in r.cells.iter().enumerate() {
                w.obj().key("col").str(self.heads[i]);
                w.key("measured").num(format_args!("{v:.decimals$}"));
                if let Some(paper) = &r.paper {
                    let p = paper[i] as f64;
                    w.key("paper").num(paper[i]);
                    w.key("rel_err").num(format_args!("{:.4}", (v - p) / p));
                }
                w.end();
            }
            w.end().end();
        }
        w.end();
        write_paper_claims(w.key("claims"), self.id, table);
        w.end();
    }
}

fn main() {
    let mut selected = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            // Values are read (and checked) by name below.
            "--scale-pct" | "--out" | "--telemetry-out" => drop(args.next()),
            id if PAPER_IDS.contains(&id) => selected.push(id),
            other => exit_usage(&format!(
                "unknown experiment or flag {other:?} (experiments: {})",
                PAPER_IDS.join(" ")
            )),
        }
    }
    let scale_pct = arg_u64("--scale-pct", 100).max(1);
    let out = arg_str("--out");
    let mut ctx =
        Ctx { scale_pct, links: BTreeMap::new(), cells_run: 0, sink: TelemetrySink::from_args() };

    println!("paper: the evaluation at {scale_pct} % scale, measured / paper per cell");
    let mut w = Writer::new();
    w.obj().key("schema").str(PAPER_SCHEMA).key("scale_pct").num(scale_pct);
    w.key("experiments").arr();
    for (id, run) in PAPER_IDS.iter().zip(EXPERIMENTS) {
        if selected.is_empty() || selected.contains(id) {
            let section = run(&mut ctx);
            debug_assert_eq!(section.id, *id, "EXPERIMENTS is in PAPER_IDS order");
            let table = section.table();
            section.print(&table);
            section.write(&mut w, &table);
        }
    }
    w.end().end();
    ctx.sink.finish();
    if finish_report(&w.finish(), out.as_deref(), "\nwrote ", check_paper_report) {
        println!("check : OK (schema, claims follow from the cells, expected outcomes)");
    }
}
