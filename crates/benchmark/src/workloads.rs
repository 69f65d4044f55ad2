//! The five workloads: names, reasons, fixed sizes and how each is run.
//!
//! Sizes are constants, not flags: work per run is fixed so that host time
//! is the measured quantity and the virtual-time metrics are a function of
//! the seed alone. `scale_den` divides the size (10 for the warm-up run, 100
//! in tests) and is never anything else in a measured run.

use std::time::Duration;

use antipode_app::social::{self, SocialConfig};
use antipode_app::train_ticket::{self, TrainTicketConfig};
use antipode_sim::net::regions::{EU, SG};

use crate::outcome::{Outcome, WorkloadRun};
use crate::{social_twin, trace_rpc, train_twin};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `social::run`, US→SG with congestion, Antipode on.
    ComposePost,
    /// The same configuration and seed with Antipode off.
    ComposePostOriginal,
    /// `train_ticket::run`, Antipode on.
    CancelTicket,
    /// Call graphs through `Endpoint::call`, shims and a barrier.
    TraceRpc,
    /// The 20 cells of Fig 8, one simulation after another.
    Fig8Sweep,
}

/// compose_post*: offered load and issue window.
pub const COMPOSE_RATE: f64 = 125.0;
/// See [`COMPOSE_RATE`].
pub const COMPOSE_SECS: u64 = 800;
/// cancel_ticket: offered load and issue window.
pub const CANCEL_RATE: f64 = 300.0;
/// See [`CANCEL_RATE`].
pub const CANCEL_SECS: u64 = 600;
/// trace_rpc: call graphs replayed (at `trace_rpc::RATE_RPS`).
pub const RPC_GRAPHS: usize = 6_000;
/// fig8_sweep: issue window of each of the 20 cells, and the loads swept.
pub const FIG8_SECS: u64 = 60;
/// See [`FIG8_SECS`].
pub const FIG8_RATES: [f64; 5] = [50.0, 75.0, 100.0, 125.0, 150.0];

/// Inputs made from the seed during set-up.
pub enum Prepared {
    /// The applications generate their load inside `run`.
    Nothing,
    /// `trace_rpc`'s call graphs.
    Rpc(trace_rpc::Inputs),
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ComposePost,
        Workload::ComposePostOriginal,
        Workload::CancelTicket,
        Workload::TraceRpc,
        Workload::Fig8Sweep,
    ];

    /// The fixed name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ComposePost => "compose_post",
            Workload::ComposePostOriginal => "compose_post_original",
            Workload::CancelTicket => "cancel_ticket",
            Workload::TraceRpc => "trace_rpc",
            Workload::Fig8Sweep => "fig8_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed size, as text.
    pub fn size(self) -> String {
        match self {
            Workload::ComposePost | Workload::ComposePostOriginal => {
                format!("{COMPOSE_RATE} rps x {COMPOSE_SECS} virtual s")
            }
            Workload::CancelTicket => format!("{CANCEL_RATE} rps x {CANCEL_SECS} virtual s"),
            Workload::TraceRpc => {
                format!("{RPC_GRAPHS} call graphs at {} rps", trace_rpc::RATE_RPS)
            }
            Workload::Fig8Sweep => format!("20 cells x {FIG8_SECS} virtual s"),
        }
    }

    /// Whether Antipode is on, so that a violation or an unfinished request
    /// is a failure.
    pub fn antipode(self) -> bool {
        self != Workload::ComposePostOriginal
    }

    /// Set-up: everything made from the seed before the first request.
    pub fn prepare(self, seed: u64, scale_den: u64) -> Prepared {
        match self {
            Workload::TraceRpc => Prepared::Rpc(trace_rpc::Inputs::generate(
                seed,
                (RPC_GRAPHS as u64 / scale_den).max(1) as usize,
            )),
            _ => Prepared::Nothing,
        }
    }

    /// The run phase. Untraced, the applications run through their own
    /// closed entry points (`social::run`, `train_ticket::run`) — what users
    /// run, and what end-to-end numbers come from; traced, through their
    /// twins, stepped by the benchmark's loop. `trace_rpc` is the benchmark's
    /// own driver either way.
    pub fn run(self, prepared: &Prepared, seed: u64, scale_den: u64, traced: bool) -> WorkloadRun {
        let secs = |full: u64| Duration::from_secs_f64(full as f64 / scale_den as f64);
        match self {
            Workload::ComposePost | Workload::ComposePostOriginal => {
                let mut cfg = SocialConfig::new(SG, COMPOSE_RATE)
                    .with_duration(secs(COMPOSE_SECS))
                    .with_seed(seed);
                cfg.antipode = self.antipode();
                run_social(&cfg, traced)
            }
            Workload::CancelTicket => {
                let cfg = TrainTicketConfig::new(CANCEL_RATE)
                    .with_antipode()
                    .with_duration(secs(CANCEL_SECS))
                    .with_seed(seed);
                if traced {
                    train_twin::run(&cfg, true)
                } else {
                    WorkloadRun::of(Outcome::from_train_ticket(&train_ticket::run(&cfg)), true)
                }
            }
            Workload::TraceRpc => {
                let Prepared::Rpc(inputs) = prepared else {
                    panic!("trace_rpc needs its prepared inputs");
                };
                trace_rpc::run(inputs, seed, traced)
            }
            Workload::Fig8Sweep => {
                // The cells of `antipode_bench::experiments::fig8` in its
                // order; the virtual metrics are those of US→SG / antipode
                // at the paper's peak load.
                let mut sweep = WorkloadRun::default();
                for remote in [EU, SG] {
                    for antipode in [false, true] {
                        for rate in FIG8_RATES {
                            let mut cfg = SocialConfig::new(remote, rate)
                                .with_duration(secs(FIG8_SECS))
                                .with_seed(seed);
                            cfg.antipode = antipode;
                            let cell = run_social(&cfg, traced);
                            if remote == SG && antipode && rate == COMPOSE_RATE {
                                sweep.outcome = cell.outcome.clone();
                            }
                            sweep.absorb(cell);
                        }
                    }
                }
                sweep
            }
        }
    }
}

fn run_social(cfg: &SocialConfig, traced: bool) -> WorkloadRun {
    if traced {
        social_twin::run(cfg, true)
    } else {
        WorkloadRun::of(Outcome::from_social(&social::run(cfg)), cfg.antipode)
    }
}
