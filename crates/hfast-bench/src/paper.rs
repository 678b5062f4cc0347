//! The paper's published results, transcribed once: the claims ledger.
//!
//! Every published number or verdict the reproduction checks is one
//! [`Claim`] in [`CLAIMS`]: the paper section, the (app, P) cell, the value
//! as printed, the measured [`Quantity`], and a [`Check`] — a tolerance
//! with its reason, or a documented deviation. [`check_claims`] evaluates
//! every row on the twelve Table 3 cells of [`measure_grid`] (the
//! `all_apps()` defaults at P = 64 and 256, each measured once). `paper
//! experiments` prints the verdicts, the `table3`, `fig2`, `fig3` and
//! `classify` sections read their published values through [`published`],
//! and `tests/paper_table3.rs` (one grid for the whole binary) asserts
//! every row and diffs EXPERIMENTS.md's Table 3 block against
//! [`table3_markdown`].

use std::fmt;

use hfast_apps::{all_apps, STUDY_SIZES};
use hfast_core::{classify, CaseClass, ClassifyConfig};
use hfast_ipm::format_bytes;
use hfast_mpi::CallKind;
use hfast_topology::{tdc, BufferHistogram, CommGraph, BDP_CUTOFF};

use crate::measure::{measure_cells, AppRow};
use CaseClass::{CaseI, CaseII, CaseIII, CaseIV};
use Check::{AtLeast, Deviates, Exact, Within};
use Quantity::{
    CallShare, Case, CaseCount, ColPct, CollectivesAtOrBelow, FcnUtil, MedianCol, MedianPtp,
    PtpPct, Tdc,
};

/// A TDC statistic over the ranks of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Maximum degree.
    Max,
    /// Minimum degree.
    Min,
    /// Mean degree.
    Avg,
}

/// What a row measures on its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// A TDC statistic at a message-size cutoff in bytes (0: unthresholded).
    Tdc(Stat, u64),
    /// % of calls that are point-to-point.
    PtpPct,
    /// % of calls that are collectives.
    ColPct,
    /// Median point-to-point buffer, bytes.
    MedianPtp,
    /// Median collective buffer, bytes.
    MedianCol,
    /// FCN utilization, avgTDC@2KB / (P−1), in %.
    FcnUtil,
    /// One call kind's share of all calls, in % (Figure 2).
    CallShare(CallKind),
    /// % of collective calls with a buffer at or below this many bytes,
    /// all six codes pooled (Figure 3).
    CollectivesAtOrBelow(u64),
    /// The §2.5 case the classifier assigns.
    Case,
    /// How many of the six codes the classifier puts in one of these cases.
    CaseCount(&'static [CaseClass]),
}

/// A published or measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A number, in the quantity's unit.
    Num(f64),
    /// A §2.5 verdict.
    Case(CaseClass),
}

impl Value {
    /// The number; panics on a verdict.
    pub fn num(self) -> f64 {
        match self {
            Value::Num(x) => x,
            Value::Case(c) => panic!("{c} is a verdict, not a number"),
        }
    }
}

/// How closely the measurement must agree with the published value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Equal.
    Exact,
    /// Within `.0` of the published value, for the reason `.1`.
    Within(f64, &'static str),
    /// At least the published value less `.0`: the paper states a floor,
    /// read as the reason `.1` says.
    AtLeast(f64, &'static str),
    /// The repo knowingly differs from the paper, for the reason `why`; the
    /// row asserts the measured value EXPERIMENTS.md quotes, within `tol`.
    Deviates {
        /// The measured value EXPERIMENTS.md quotes.
        measured: f64,
        /// Slack around `measured`.
        tol: f64,
        /// Why the repo differs.
        why: &'static str,
    },
}

/// One published number or verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Where the paper publishes it.
    pub section: &'static str,
    /// Application name, or [`ALL_CODES`] for a claim over all six.
    pub app: &'static str,
    /// Processor count of the cell.
    pub procs: usize,
    /// What is measured.
    pub quantity: Quantity,
    /// The value as published.
    pub published: Value,
    /// How the measurement is held to it.
    pub check: Check,
}

/// The `app` of a claim about all six codes together.
pub const ALL_CODES: &str = "all six codes";

/// The section name of the Table 3 rows.
const TABLE3: &str = "Table 3";

/// Table 3's columns, in the order `paper table3` prints them.
pub(crate) const TABLE3_COLUMNS: [Quantity; 7] = [
    PtpPct,
    MedianPtp,
    ColPct,
    MedianCol,
    Tdc(Stat::Max, BDP_CUTOFF),
    Tdc(Stat::Avg, BDP_CUTOFF),
    FcnUtil,
];

const MAX: Quantity = Tdc(Stat::Max, BDP_CUTOFF);
const AVG: Quantity = Tdc(Stat::Avg, BDP_CUTOFF);
const UNCUT: Quantity = Tdc(Stat::Max, 0);
const MIN_32K: Quantity = Tdc(Stat::Min, 32 << 10);

const fn claim(
    section: &'static str,
    app: &'static str,
    procs: usize,
    quantity: Quantity,
    published: f64,
    check: Check,
) -> Claim {
    Claim {
        section,
        app,
        procs,
        quantity,
        published: Value::Num(published),
        check,
    }
}

const fn t3(app: &'static str, procs: usize, q: Quantity, published: f64, check: Check) -> Claim {
    claim(TABLE3, app, procs, q, published, check)
}

const fn fig2(app: &'static str, kind: CallKind, published: f64, check: Check) -> Claim {
    claim("Figure 2", app, 64, CallShare(kind), published, check)
}

const fn fig3(at_or_below: u64, published: f64, check: Check) -> Claim {
    let quantity = CollectivesAtOrBelow(at_or_below);
    claim("Figure 3", ALL_CODES, 64, quantity, published, check)
}

const fn count(cases: &'static [CaseClass], published: f64) -> Claim {
    claim("§5.2", ALL_CODES, 256, CaseCount(cases), published, Exact)
}

const fn case(app: &'static str, verdict: CaseClass) -> Claim {
    Claim {
        section: "§2.5",
        app,
        procs: 256,
        quantity: Case,
        published: Value::Case(verdict),
        check: Exact,
    }
}

const fn kib(k: u64) -> f64 {
    (k << 10) as f64
}

// Reasons, one per tolerance the rows below share; a check that is one
// row's own is named here too, so that every row fits on one line.
const WHOLE_PCT: Check = Within(0.5, "the paper prints whole percent");
const ALLREDUCE_CADENCE: &str = "the kernel's Allreduce cadence sets the collective share";
const CACTUS_FACES: Check = Within(
    1024.0,
    "the kernel sends 300 KiB faces at both sizes; the paper prints 1k less here",
);
const CACTUS_AVG: &str = "a 4×4×4 mesh averages 4.5; the paper rounds to 5";
const CACTUS_FCN: &str = "follows the 4.5 average; the paper's value is above its own avg/(P−1)";
const CACTUS_MIX: &str = "fixed per-step pattern; its 0.8 % Allreduce is the paper's Other";
const LBMHD_AVG: &str = "periodic lattice: every rank has 12 partners; the paper's runs are not";
const LBMHD_MIX: &str = "fixed per-step pattern; its 0.2 % Allreduce is the paper's Other";
const GTC_SPLIT: &str =
    "the kernel's per-step gathers and shifts fix its split; the paper's moves with P";
const GTC_MIX: &str = "fixed per-step pattern of gathers, ring shifts and reductions";
const SUPERLU_SPLIT: &str = "the kernel's per-panel Bcasts fix its split; the paper's moves with P";
const SUPERLU_FCN: Check = Deviates {
    measured: 12.0,
    tol: 0.5,
    why: "avgTDC/(P−1) = 30/255, the definition every other row fits; \
          the paper's value contradicts its own TDC column",
};
const SUPERLU_MIX: &str = "fixed per-panel pattern; its 3.6 % Barrier is the paper's Other";
const PMEMD_MEDIAN: Check = Deviates {
    measured: 4662.0,
    tol: 0.0,
    why: "the distance-decay model's median is lower; every partner is still \
          above the 2 KB cutoff, which is what the analysis uses",
};
const PMEMD_AVG: &str = "the distance-decay model averages 55.6; the paper prints 55";
const PMEMD_WAITANY: &str = "one Waitany per request of the symmetric Isend/Irecv pattern";
const PMEMD_PAIR: &str = "one Irecv per Isend: the paper's asymmetric split cannot be reached";
const PARATEC_COL: Check = Deviates {
    measured: 8.0,
    tol: 0.0,
    why: "the kernel's reductions carry 8 B at both sizes, as the paper prints \
          at P = 64; both are far below 2 KB",
};
const PARATEC_MIX: &str = "fixed per-transpose pattern; its 0.3 % Allreduce is the paper's Other";
const FIG3_2K: Check = AtLeast(0.0, "'about 90 %' read as a floor: payloads are small");
const FIG3_100: Check = AtLeast(10.0, "'almost half' read as a floor of 40 %: many are tiny");

/// The ledger. Table 3 runs in `all_apps()` order, seven rows per cell in
/// the column order `paper table3` prints.
pub const CLAIMS: &[Claim] = &[
    t3("Cactus", 64, PtpPct, 99.4, Within(0.5, ALLREDUCE_CADENCE)),
    t3("Cactus", 64, MedianPtp, kib(299), CACTUS_FACES),
    t3("Cactus", 64, ColPct, 0.6, Within(0.5, ALLREDUCE_CADENCE)),
    t3("Cactus", 64, MedianCol, 8.0, Exact),
    t3("Cactus", 64, MAX, 6.0, Exact),
    t3("Cactus", 64, AVG, 5.0, Within(0.6, CACTUS_AVG)),
    t3("Cactus", 64, FcnUtil, 9.0, Within(2.0, CACTUS_FCN)),
    t3("Cactus", 256, PtpPct, 99.5, Within(0.5, ALLREDUCE_CADENCE)),
    t3("Cactus", 256, MedianPtp, kib(300), Exact),
    t3("Cactus", 256, ColPct, 0.5, Within(0.5, ALLREDUCE_CADENCE)),
    t3("Cactus", 256, MedianCol, 8.0, Exact),
    t3("Cactus", 256, MAX, 6.0, Exact),
    t3("Cactus", 256, AVG, 5.0, Exact),
    t3("Cactus", 256, FcnUtil, 2.0, WHOLE_PCT),
    t3("LBMHD", 64, PtpPct, 99.8, Within(0.3, ALLREDUCE_CADENCE)),
    t3("LBMHD", 64, MedianPtp, kib(811), Exact),
    t3("LBMHD", 64, ColPct, 0.2, Within(0.3, ALLREDUCE_CADENCE)),
    t3("LBMHD", 64, MedianCol, 8.0, Exact),
    t3("LBMHD", 64, MAX, 12.0, Exact),
    t3("LBMHD", 64, AVG, 11.5, Within(0.6, LBMHD_AVG)),
    t3("LBMHD", 64, FcnUtil, 19.0, WHOLE_PCT),
    t3("LBMHD", 256, PtpPct, 99.9, Within(0.3, ALLREDUCE_CADENCE)),
    t3("LBMHD", 256, MedianPtp, kib(848), Exact),
    t3("LBMHD", 256, ColPct, 0.1, Within(0.3, ALLREDUCE_CADENCE)),
    t3("LBMHD", 256, MedianCol, 8.0, Exact),
    t3("LBMHD", 256, MAX, 12.0, Exact),
    t3("LBMHD", 256, AVG, 11.8, Within(0.4, LBMHD_AVG)),
    t3("LBMHD", 256, FcnUtil, 5.0, WHOLE_PCT),
    t3("GTC", 64, PtpPct, 42.0, Within(2.0, GTC_SPLIT)),
    t3("GTC", 64, MedianPtp, kib(128), Exact),
    t3("GTC", 64, ColPct, 58.0, Within(2.0, GTC_SPLIT)),
    t3("GTC", 64, MedianCol, 100.0, Exact),
    t3("GTC", 64, MAX, 2.0, Exact),
    t3("GTC", 64, AVG, 2.0, Exact),
    t3("GTC", 64, FcnUtil, 3.0, WHOLE_PCT),
    t3("GTC", 256, PtpPct, 40.2, Within(4.0, GTC_SPLIT)),
    t3("GTC", 256, MedianPtp, kib(128), Exact),
    t3("GTC", 256, ColPct, 59.8, Within(4.0, GTC_SPLIT)),
    t3("GTC", 256, MedianCol, 100.0, Exact),
    t3("GTC", 256, MAX, 10.0, Exact),
    t3("GTC", 256, AVG, 4.0, Exact),
    t3("GTC", 256, FcnUtil, 2.0, WHOLE_PCT),
    t3("SuperLU", 64, PtpPct, 89.8, Within(3.0, SUPERLU_SPLIT)),
    t3("SuperLU", 64, MedianPtp, 64.0, Exact),
    t3("SuperLU", 64, ColPct, 10.2, Within(3.0, SUPERLU_SPLIT)),
    t3("SuperLU", 64, MedianCol, 24.0, Exact),
    t3("SuperLU", 64, MAX, 14.0, Exact),
    t3("SuperLU", 64, AVG, 14.0, Exact),
    t3("SuperLU", 64, FcnUtil, 22.0, WHOLE_PCT),
    t3("SuperLU", 256, PtpPct, 92.8, Within(4.0, SUPERLU_SPLIT)),
    t3("SuperLU", 256, MedianPtp, 48.0, Exact),
    t3("SuperLU", 256, ColPct, 7.2, Within(4.0, SUPERLU_SPLIT)),
    t3("SuperLU", 256, MedianCol, 24.0, Exact),
    t3("SuperLU", 256, MAX, 30.0, Exact),
    t3("SuperLU", 256, AVG, 30.0, Exact),
    t3("SuperLU", 256, FcnUtil, 25.0, SUPERLU_FCN),
    t3("PMEMD", 64, PtpPct, 99.1, Within(1.5, ALLREDUCE_CADENCE)),
    t3("PMEMD", 64, MedianPtp, kib(6), PMEMD_MEDIAN),
    t3("PMEMD", 64, ColPct, 0.9, Within(1.5, ALLREDUCE_CADENCE)),
    t3("PMEMD", 64, MedianCol, 768.0, Exact),
    t3("PMEMD", 64, MAX, 63.0, Exact),
    t3("PMEMD", 64, AVG, 63.0, Exact),
    t3("PMEMD", 64, FcnUtil, 100.0, WHOLE_PCT),
    t3("PMEMD", 256, PtpPct, 98.6, Within(1.5, ALLREDUCE_CADENCE)),
    t3("PMEMD", 256, MedianPtp, 72.0, Exact),
    t3("PMEMD", 256, ColPct, 1.4, Within(1.5, ALLREDUCE_CADENCE)),
    t3("PMEMD", 256, MedianCol, 768.0, Exact),
    t3("PMEMD", 256, MAX, 255.0, Exact),
    t3("PMEMD", 256, AVG, 55.0, Within(1.0, PMEMD_AVG)),
    t3("PMEMD", 256, FcnUtil, 22.0, WHOLE_PCT),
    t3("PARATEC", 64, PtpPct, 99.5, Within(0.5, ALLREDUCE_CADENCE)),
    t3("PARATEC", 64, MedianPtp, 64.0, Exact),
    t3("PARATEC", 64, ColPct, 0.5, Within(0.5, ALLREDUCE_CADENCE)),
    t3("PARATEC", 64, MedianCol, 8.0, Exact),
    t3("PARATEC", 64, MAX, 63.0, Exact),
    t3("PARATEC", 64, AVG, 63.0, Exact),
    t3("PARATEC", 64, FcnUtil, 100.0, WHOLE_PCT),
    t3("PARATEC", 256, PtpPct, 99.9, Within(0.5, ALLREDUCE_CADENCE)),
    t3("PARATEC", 256, MedianPtp, 64.0, Exact),
    t3("PARATEC", 256, ColPct, 0.1, Within(0.5, ALLREDUCE_CADENCE)),
    t3("PARATEC", 256, MedianCol, 4.0, PARATEC_COL),
    t3("PARATEC", 256, MAX, 255.0, Exact),
    t3("PARATEC", 256, AVG, 255.0, Exact),
    t3("PARATEC", 256, FcnUtil, 100.0, WHOLE_PCT),
    // Figure 2: call mixes at P = 64.
    fig2("Cactus", CallKind::Wait, 39.3, Within(3.0, CACTUS_MIX)),
    fig2("Cactus", CallKind::Irecv, 26.8, Within(2.0, CACTUS_MIX)),
    fig2("Cactus", CallKind::Isend, 26.8, Within(2.0, CACTUS_MIX)),
    fig2("Cactus", CallKind::Waitall, 6.5, Within(2.5, CACTUS_MIX)),
    fig2("LBMHD", CallKind::Irecv, 40.0, Within(0.5, LBMHD_MIX)),
    fig2("LBMHD", CallKind::Isend, 40.0, Within(0.5, LBMHD_MIX)),
    fig2("LBMHD", CallKind::Waitall, 20.0, Within(0.5, LBMHD_MIX)),
    fig2("GTC", CallKind::Gather, 47.4, Within(2.0, GTC_MIX)),
    fig2("GTC", CallKind::Sendrecv, 40.8, Within(2.0, GTC_MIX)),
    fig2("GTC", CallKind::Allreduce, 10.9, Within(1.5, GTC_MIX)),
    fig2("SuperLU", CallKind::Wait, 30.6, Within(2.0, SUPERLU_MIX)),
    fig2("SuperLU", CallKind::Isend, 16.4, Within(2.0, SUPERLU_MIX)),
    fig2("SuperLU", CallKind::Irecv, 15.7, Within(2.0, SUPERLU_MIX)),
    fig2("SuperLU", CallKind::Recv, 15.4, Within(2.0, SUPERLU_MIX)),
    fig2("SuperLU", CallKind::Send, 14.7, Within(2.0, SUPERLU_MIX)),
    fig2("SuperLU", CallKind::Bcast, 5.3, Within(1.5, SUPERLU_MIX)),
    fig2("PMEMD", CallKind::Waitany, 36.6, Within(2.0, PMEMD_WAITANY)),
    fig2("PMEMD", CallKind::Isend, 32.7, Within(2.5, PMEMD_PAIR)),
    fig2("PMEMD", CallKind::Irecv, 29.3, Within(2.5, PMEMD_PAIR)),
    fig2("PARATEC", CallKind::Wait, 49.6, Within(1.5, PARATEC_MIX)),
    fig2("PARATEC", CallKind::Isend, 25.1, Within(1.5, PARATEC_MIX)),
    fig2("PARATEC", CallKind::Irecv, 24.8, Within(1.5, PARATEC_MIX)),
    // Figure 3: collective buffers of all six codes pooled, at P = 64.
    fig3(2048, 90.0, FIG3_2K),
    fig3(100, 50.0, FIG3_100),
    // §4 / Figures 5, 8 and 10: TDC before and across the cutoff.
    claim("Figure 5", "GTC", 256, UNCUT, 17.0, Exact),
    claim("Figure 5", "GTC", 256, Tdc(Stat::Max, 512), 17.0, Exact),
    claim("Figure 5", "GTC", 256, Tdc(Stat::Max, 8 << 10), 2.0, Exact),
    claim("Figure 8", "SuperLU", 64, UNCUT, 63.0, Exact),
    claim("Figure 8", "SuperLU", 256, UNCUT, 255.0, Exact),
    // Min and max only fall as the cutoff rises, so min = P−1 at 32 KB is
    // max = min = P−1 at every cutoff up to 32 KB.
    claim("Figure 10", "PARATEC", 64, MIN_32K, 63.0, Exact),
    claim("Figure 10", "PARATEC", 256, MIN_32K, 255.0, Exact),
    // §2.5 verdicts and the §5.2 count, at P = 256.
    case("Cactus", CaseI),
    case("LBMHD", CaseII),
    case("GTC", CaseIII),
    case("SuperLU", CaseIII),
    case("PMEMD", CaseIII),
    case("PARATEC", CaseIV),
    count(&[CaseI], 1.0),
    count(&[CaseIV], 1.0),
    count(&[CaseII, CaseIII], 4.0),
];

/// The published value of the row measuring `quantity` on `app` at
/// `procs`, if the ledger has one.
pub fn published(app: &str, procs: usize, quantity: Quantity) -> Option<Value> {
    CLAIMS
        .iter()
        .find(|c| c.app == app && c.procs == procs && c.quantity == quantity)
        .map(|c| c.published)
}

/// One row of the ledger with its measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The row.
    pub claim: &'static Claim,
    /// What the reproduction measured.
    pub measured: Value,
}

impl Verdict {
    /// Whether the measurement satisfies the row's check.
    pub fn holds(&self) -> bool {
        let (published, measured) = match (self.claim.published, self.measured) {
            (Value::Num(p), Value::Num(m)) => (p, m),
            (p, m) => return p == m,
        };
        match self.claim.check {
            Exact => measured == published,
            Within(tol, _) => (measured - published).abs() <= tol,
            AtLeast(slack, _) => measured >= published - slack,
            Deviates {
                measured: quoted,
                tol,
                ..
            } => (measured - quoted).abs() <= tol,
        }
    }

    /// `section · cell · quantity`.
    fn cell(&self) -> String {
        let c = self.claim;
        format!(
            "{} · {} P={} · {}",
            c.section,
            c.app,
            c.procs,
            label(c.quantity)
        )
    }

    /// The row's check against its published value.
    fn tolerance(&self) -> String {
        let c = self.claim;
        let show = |v| show(c.quantity, v);
        match c.check {
            Exact => "exact".into(),
            Within(tol, why) => format!("±{} ({why})", show(Value::Num(tol))),
            AtLeast(slack, why) => format!(
                "at least {} ({why})",
                show(Value::Num(c.published.num() - slack))
            ),
            Deviates { measured, tol, why } => format!(
                "deviates: asserts {} ±{} ({why})",
                show(Value::Num(measured)),
                show(Value::Num(tol))
            ),
        }
    }

    /// `None` when the row holds, else its failure line: `section · cell
    /// · quantity: expected published, tolerance, got measured`.
    pub fn violation(&self) -> Option<String> {
        let show = |v| show(self.claim.quantity, v);
        (!self.holds()).then(|| {
            format!(
                "{}: expected {}, {}, got {}",
                self.cell(),
                show(self.claim.published),
                self.tolerance(),
                show(self.measured)
            )
        })
    }
}

impl fmt::Display for Verdict {
    /// `section · cell · quantity: published, measured, tolerance`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v| show(self.claim.quantity, v);
        write!(
            f,
            "{}: published {}, measured {}, {}",
            self.cell(),
            show(self.claim.published),
            show(self.measured),
            self.tolerance()
        )
    }
}

fn label(q: Quantity) -> String {
    match q {
        Tdc(stat, cutoff) => {
            let stat = match stat {
                Stat::Max => "max",
                Stat::Min => "min",
                Stat::Avg => "avg",
            };
            match cutoff {
                0 => format!("TDC {stat} uncut"),
                c => format!("TDC {stat} @ {}", format_bytes(c)),
            }
        }
        PtpPct => "%PTP".into(),
        ColPct => "%Col".into(),
        MedianPtp => "median PTP buffer".into(),
        MedianCol => "median collective buffer".into(),
        FcnUtil => "FCN utilization".into(),
        CallShare(kind) => format!("{} share", kind.mpi_name()),
        CollectivesAtOrBelow(b) => format!("collective calls ≤ {}", format_bytes(b)),
        Case => "case".into(),
        CaseCount(cases) => {
            let names: Vec<String> = cases.iter().map(|c| c.to_string()).collect();
            format!("codes in {}", names.join(" or "))
        }
    }
}

fn show(q: Quantity, v: Value) -> String {
    let x = match v {
        Value::Case(c) => return c.to_string(),
        Value::Num(x) => x,
    };
    match q {
        Tdc(Stat::Avg, _) => format!("{x:.1}"),
        Tdc(..) | CaseCount(_) => format!("{x:.0}"),
        MedianPtp | MedianCol => format_bytes(x as u64),
        _ => format!("{x:.1}%"),
    }
}

/// The twelve Table 3 cells — every app of `all_apps()` at each of
/// `STUDY_SIZES` — measured once each, in grid order.
pub fn measure_grid() -> Vec<AppRow> {
    let cells: Vec<(usize, usize)> = (0..all_apps().len())
        .flat_map(|a| STUDY_SIZES.iter().map(move |&p| (a, p)))
        .collect();
    measure_cells(&cells)
}

/// A measured cell with the graph and verdict the rows read.
struct Cell<'a> {
    row: &'a AppRow,
    graph: CommGraph,
    case: CaseClass,
}

/// Evaluates every row of [`CLAIMS`] on `grid` (from [`measure_grid`]),
/// returning one verdict per row in ledger order. Panics if a row's cell
/// is not in `grid`.
pub fn check_claims(grid: &[AppRow]) -> Vec<Verdict> {
    let cells: Vec<Cell> = grid
        .iter()
        .map(|row| {
            let graph = row.steady.comm_graph();
            let case = classify(&graph, &ClassifyConfig::default()).case;
            Cell { row, graph, case }
        })
        .collect();
    CLAIMS
        .iter()
        .map(|claim| Verdict {
            claim,
            measured: measure(claim, &cells),
        })
        .collect()
}

fn measure(claim: &Claim, cells: &[Cell]) -> Value {
    let at_p = || cells.iter().filter(|c| c.row.procs == claim.procs);
    let cell = || {
        at_p()
            .find(|c| c.row.name == claim.app)
            .unwrap_or_else(|| panic!("no measured cell {} P={}", claim.app, claim.procs))
    };
    Value::Num(match claim.quantity {
        Tdc(stat, cutoff) => {
            let s = tdc(&cell().graph, cutoff);
            match stat {
                Stat::Max => s.max as f64,
                Stat::Min => s.min as f64,
                Stat::Avg => s.avg,
            }
        }
        PtpPct => cell().row.ptp_pct,
        ColPct => cell().row.col_pct,
        MedianPtp => cell().row.median_ptp as f64,
        MedianCol => cell().row.median_col as f64,
        FcnUtil => cell().row.fcn_util_pct,
        CallShare(kind) => cell()
            .row
            .steady
            .call_mix()
            .into_iter()
            .find_map(|(k, pct)| (k == kind).then_some(pct))
            .unwrap_or(0.0),
        CollectivesAtOrBelow(bytes) => {
            let mut pooled = BufferHistogram::new();
            for c in at_p() {
                pooled.merge(&c.row.steady.collective_buffer_histogram());
            }
            100.0 * pooled.fraction_at_or_below(bytes)
        }
        Case => return Value::Case(cell().case),
        CaseCount(cases) => at_p().filter(|c| cases.contains(&c.case)).count() as f64,
    })
}

/// EXPERIMENTS.md's Table 3 block: one line per cell, each column
/// `measured (published)`, starred where the row deviates on purpose,
/// then the ledger's row count (not its pass count: a missing row fails
/// its own check, not this block). `verdicts` is [`check_claims`]' output.
pub fn table3_markdown(verdicts: &[Verdict]) -> String {
    let mut out = String::from(
        "| code | P | %PTP | medPTP | %Col | medCol | TDC@2k max, avg | FCN util |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let table3: Vec<&Verdict> = verdicts
        .iter()
        .filter(|v| v.claim.section == TABLE3)
        .collect();
    // The ledger lists each cell's rows in `TABLE3_COLUMNS` order.
    for cell in table3.chunks(TABLE3_COLUMNS.len()) {
        let column = |rows: &[&Verdict]| {
            let join = |value: fn(&Verdict) -> Value| {
                let shown: Vec<String> = rows
                    .iter()
                    .map(|v| show(v.claim.quantity, value(v)))
                    .collect();
                shown.join(", ")
            };
            let deviates = rows
                .iter()
                .any(|v| matches!(v.claim.check, Deviates { .. }));
            let star = if deviates { "*" } else { "" };
            format!(
                "{} ({}){star}",
                join(|v| v.measured),
                join(|v| v.claim.published)
            )
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            cell[0].claim.app,
            cell[0].claim.procs,
            column(&cell[0..1]),
            column(&cell[1..2]),
            column(&cell[2..3]),
            column(&cell[3..4]),
            column(&cell[4..6]),
            column(&cell[6..7]),
        ));
    }
    out.push_str(&format!(
        "\nThe ledger has {} rows, {} of them Table 3's; `paper experiments` \
         prints each as PASS or MISS.\n",
        verdicts.len(),
        table3.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPS: [&str; 6] = ["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"];

    #[test]
    fn table3_has_all_app_size_pairs() {
        for app in APPS {
            for procs in STUDY_SIZES {
                for q in TABLE3_COLUMNS {
                    assert!(published(app, procs, q).is_some(), "{app}@{procs} {q:?}");
                }
            }
        }
        assert!(published("GTC", 128, PtpPct).is_none());
        let table3: Vec<&Claim> = CLAIMS.iter().filter(|c| c.section == TABLE3).collect();
        assert_eq!(
            table3.len(),
            APPS.len() * STUDY_SIZES.len() * TABLE3_COLUMNS.len()
        );
        for cell in table3.chunks(TABLE3_COLUMNS.len()) {
            let quantities: Vec<Quantity> = cell.iter().map(|c| c.quantity).collect();
            assert_eq!(
                quantities, TABLE3_COLUMNS,
                "{} P={}",
                cell[0].app, cell[0].procs
            );
            assert!(cell
                .iter()
                .all(|c| (c.app, c.procs) == (cell[0].app, cell[0].procs)));
        }
    }

    #[test]
    fn every_cell_quantity_is_claimed_once() {
        for (i, a) in CLAIMS.iter().enumerate() {
            for b in &CLAIMS[i + 1..] {
                assert!(
                    (a.app, a.procs, a.quantity) != (b.app, b.procs, b.quantity),
                    "{} and {} both claim {} P={} {:?}",
                    a.section,
                    b.section,
                    a.app,
                    a.procs,
                    a.quantity
                );
            }
        }
    }

    #[test]
    fn percentages_sum_to_100() {
        for app in APPS {
            for procs in STUDY_SIZES {
                let pct = |q| published(app, procs, q).expect("Table 3 row").num();
                let sum = pct(PtpPct) + pct(ColPct);
                assert!((sum - 100.0).abs() < 0.11, "{app} @ {procs}: {sum}");
            }
        }
    }

    #[test]
    fn call_mix_known_for_all_apps() {
        for app in APPS {
            let shares: Vec<f64> = CLAIMS
                .iter()
                .filter(|c| c.app == app && matches!(c.quantity, CallShare(_)))
                .map(|c| c.published.num())
                .collect();
            assert!(!shares.is_empty(), "{app}");
            assert!(shares.iter().sum::<f64>() <= 100.0, "{app}: {shares:?}");
        }
    }

    #[test]
    fn verdicts_name_section_cell_values_and_tolerance() {
        let claim = &CLAIMS[0];
        let miss = Verdict {
            claim,
            measured: Value::Num(90.0),
        };
        assert!(!miss.holds());
        assert_eq!(
            miss.to_string(),
            format!("Table 3 · Cactus P=64 · %PTP: published 99.4%, measured 90.0%, ±0.5% ({ALLREDUCE_CADENCE})")
        );
        assert_eq!(
            miss.violation(),
            Some(format!("Table 3 · Cactus P=64 · %PTP: expected 99.4%, ±0.5% ({ALLREDUCE_CADENCE}), got 90.0%"))
        );
        let case = CLAIMS
            .iter()
            .find(|c| c.quantity == Case)
            .expect("a verdict row");
        let wrong = Verdict {
            claim: case,
            measured: Value::Case(CaseIV),
        };
        assert!(!wrong.holds());
        assert!(Verdict {
            claim: case,
            measured: case.published
        }
        .holds());
        assert_eq!(
            Verdict {
                claim: case,
                measured: case.published
            }
            .violation(),
            None
        );
    }
}
