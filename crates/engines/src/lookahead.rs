//! The serving loop's input lookahead: one helper thread materializes the
//! inputs of each client's next requests while the event loop runs, so
//! generating relations (and, for a single join, the oracle's check of
//! them) overlaps the executions instead of preceding each submission.
//! Paper §IV-A double-buffers chunk transfers behind the probe kernel for
//! the same reason.
//!
//! [`serve`](crate::fleet::serve) runs the loop as
//! [`Pool::beside`](hcj_host::pool::Pool::beside)'s main task and
//! [`Lookahead::fill`] as its side task. The helper keeps at most
//! [`LOOKAHEAD`] requests per client materialized past the last one the
//! loop submitted, and fills nearest-first: the next request of every
//! client in client order, then the one after. When nothing is missing it
//! waits on a condvar. At submission, [`Lookahead::take`] hands over the
//! request's inputs, or `None` on a miss, and the loop then materializes
//! them itself. `take` waits only while the helper is materializing that
//! very request. The helper drops anything it finishes for a request
//! already taken.
//!
//! Inputs and checks are pure functions of a request's spec, so which
//! thread materializes them never changes an output byte. On a serial pool
//! the helper never runs and every submission materializes inline.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use hcj_workload::oracle::JoinCheck;
use hcj_workload::plan::{PlanOp, PlanSpec};
use hcj_workload::Relation;

use crate::service::{ClientSpec, QuerySpec, RequestSpec};

/// Requests per client materialized ahead of the last one submitted.
const LOOKAHEAD: usize = 2;

/// A single join's materialized inputs and the oracle's check of them.
pub(crate) struct JoinInputs {
    /// Left input, in the caller's order.
    pub r: Relation,
    /// Right input.
    pub s: Relation,
    /// `JoinCheck::compute(r, s)`: what every execution of this join is
    /// compared against.
    pub check: JoinCheck,
}

impl JoinInputs {
    /// Generate both relations of `spec` and compute their check.
    pub(crate) fn generate(spec: &RequestSpec) -> Self {
        let (r, s) = (spec.r.generate(), spec.s.generate());
        let check = JoinCheck::compute(&r, &s);
        JoinInputs { r, s, check }
    }
}

/// A plan's scan outputs, indexed by op id (`None` for every other op).
pub(crate) fn generate_scans(spec: &PlanSpec) -> Vec<Option<Relation>> {
    spec.ops
        .iter()
        .map(|op| match op {
            PlanOp::Scan { spec, .. } => Some(spec.generate()),
            _ => None,
        })
        .collect()
}

/// One request's materialized inputs.
pub(crate) enum Inputs {
    /// A single join's relations and check.
    Join(JoinInputs),
    /// A plan's scans.
    Plan(Vec<Option<Relation>>),
}

impl Inputs {
    fn materialize(query: &QuerySpec) -> Self {
        match query {
            QuerySpec::Join(spec) => Inputs::Join(JoinInputs::generate(spec)),
            QuerySpec::Plan(plan) => Inputs::Plan(generate_scans(plan)),
        }
    }
}

struct State {
    /// Per client: the index of the next request the loop submits.
    next: Vec<usize>,
    /// Per client: materialized `(index, inputs)`, indexes from `next` on.
    staged: Vec<Vec<(usize, Inputs)>>,
    /// The `(client, index)` the helper is materializing.
    busy: Option<(usize, usize)>,
    /// The loop finished, or the helper stopped: nothing more is staged
    /// and `take` never waits.
    closed: bool,
}

impl State {
    /// The nearest request not yet staged: offset 0 past `next` for every
    /// client in client order, then offset 1, and so on.
    fn missing(&self, workload: &[ClientSpec]) -> Option<(usize, usize)> {
        (0..LOOKAHEAD).find_map(|ahead| {
            (0..workload.len()).find_map(|client| {
                let index = self.next[client] + ahead;
                let wanted = index < workload[client].requests.len()
                    && !self.staged[client].iter().any(|&(i, _)| i == index);
                wanted.then_some((client, index))
            })
        })
    }
}

/// The lookahead of one serving run; see the module docs.
pub(crate) struct Lookahead<'a> {
    workload: &'a [ClientSpec],
    state: Mutex<State>,
    /// Signalled whenever `State` changes: the helper waits for a taken
    /// request or the close, `take` for the request it wants.
    changed: Condvar,
}

impl<'a> Lookahead<'a> {
    pub(crate) fn new(workload: &'a [ClientSpec]) -> Self {
        let clients = workload.len();
        Lookahead {
            workload,
            state: Mutex::new(State {
                next: vec![0; clients],
                staged: (0..clients).map(|_| Vec::new()).collect(),
                busy: None,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Every update leaves `State` consistent, so a lock poisoned by a
    /// panicking thread is still sound to use; that panic reaches the
    /// caller through `Pool::beside`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, state: MutexGuard<'g, State>) -> MutexGuard<'g, State> {
        self.changed.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's loop: materialize missing requests nearest-first until
    /// the lookahead closes.
    pub(crate) fn fill(&self) {
        // However the loop ends, a panic included, close the lookahead, so
        // `take` never waits for a request nobody will finish.
        let _close = self.closer();
        let mut state = self.lock();
        while !state.closed {
            let Some((client, index)) = state.missing(self.workload) else {
                state = self.wait(state);
                continue;
            };
            state.busy = Some((client, index));
            drop(state);
            let inputs = Inputs::materialize(&self.workload[client].requests[index]);
            state = self.lock();
            state.busy = None;
            if index >= state.next[client] {
                state.staged[client].push((index, inputs));
                debug_assert!(
                    state.staged[client].len() <= LOOKAHEAD,
                    "client {client} has more than {LOOKAHEAD} requests staged"
                );
            }
            self.changed.notify_all();
        }
    }

    /// The loop submits `client`'s request `index`: its staged inputs, or
    /// `None` when the helper has not materialized them.
    pub(crate) fn take(&self, client: usize, index: usize) -> Option<Inputs> {
        let mut state = self.lock();
        while state.busy == Some((client, index)) {
            state = self.wait(state);
        }
        debug_assert_eq!(index, state.next[client], "a client submits its requests in order");
        state.next[client] = index + 1;
        let staged = &mut state.staged[client];
        let found = staged.iter().position(|&(i, _)| i == index).map(|at| staged.remove(at).1);
        self.changed.notify_all();
        found
    }

    /// A guard that closes the lookahead when dropped: the helper returns,
    /// and `take` stops waiting.
    pub(crate) fn closer(&self) -> Close<'_, 'a> {
        Close(self)
    }
}

/// Closes its lookahead on drop; see [`Lookahead::closer`].
pub(crate) struct Close<'l, 'a>(&'l Lookahead<'a>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.closed = true;
        state.busy = None;
        self.0.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BuildCacheConfig;
    use crate::facade::HcjEngine;
    use crate::fleet::{serve, FleetConfig};
    use crate::service::{
        mixed_workload, plan_workload, skewed_workload, PlanShape, ServiceConfig, ServiceReport,
    };
    use hcj_core::GpuJoinConfig;
    use hcj_gpu::faults::FaultConfig;
    use hcj_gpu::DeviceSpec;
    use hcj_host::pool::Pool;
    use hcj_sim::{SimTime, TraceExporter};

    /// `serve --quick`'s engine on a GTX 1080 whose memory is divided by
    /// `capacity_div`.
    fn quick_engine(capacity_div: u64, faults: Option<FaultConfig>) -> HcjEngine {
        let device = DeviceSpec::gtx1080().scaled_capacity(capacity_div);
        let config =
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000);
        HcjEngine::new(match faults {
            Some(f) => config.with_faults(f),
            None => config,
        })
    }

    /// Wait until the helper has staged all it may and is idle, or has
    /// stopped; returns how many requests each client has staged.
    fn settled(lookahead: &Lookahead) -> Vec<usize> {
        let mut state = lookahead.lock();
        while !state.closed && (state.busy.is_some() || state.missing(lookahead.workload).is_some())
        {
            state = lookahead.wait(state);
        }
        state.staged.iter().map(Vec::len).collect()
    }

    #[test]
    fn take_hands_over_what_the_helper_staged() {
        let workload = mixed_workload(3, 4, 200, 5);
        let generate = |client: usize, index: usize| match &workload[client].requests[index] {
            QuerySpec::Join(spec) => JoinInputs::generate(spec),
            QuerySpec::Plan(_) => unreachable!("a mixed workload is all joins"),
        };
        let serial = Lookahead::new(&workload);
        Pool::new(1).beside(
            || serial.fill(),
            || {
                let _close = serial.closer();
                assert!(serial.take(0, 0).is_none(), "no helper, nothing staged");
            },
        );

        let lookahead = Lookahead::new(&workload);
        Pool::new(2).beside(
            || lookahead.fill(),
            || {
                let _close = lookahead.closer();
                for index in 0..4 {
                    for client in 0..3 {
                        let staged = settled(&lookahead)[client];
                        assert_eq!(staged, LOOKAHEAD.min(4 - index), "before {client}.{index}");
                        let Some(Inputs::Join(got)) = lookahead.take(client, index) else {
                            panic!("request {client}.{index} was not staged");
                        };
                        let want = generate(client, index);
                        let (got, want) = ((got.r, got.s, got.check), (want.r, want.s, want.check));
                        assert_eq!(got, want, "request {client}.{index}");
                    }
                }
                assert_eq!(settled(&lookahead), vec![0; 3], "nothing is left staged");
            },
        );
    }

    #[test]
    fn serving_is_identical_on_one_and_two_workers() {
        // The serve goldens' `exchange_mix` and `fleet_chaos_25` runs, and
        // a chain-plan run whose deadline cancels some requests.
        let mix = [DeviceSpec::gtx1080(), DeviceSpec::v100(), DeviceSpec::gtx1080()]
            .map(|spec| spec.scaled_capacity(1 << 16));
        let cached = ServiceConfig::default().with_cache(Some(BuildCacheConfig::default()));
        let deadline = ServiceConfig::default().with_deadline(Some(SimTime::from_nanos(15_000)));
        let cases = [
            (
                "exchange mix",
                quick_engine(1 << 16, None),
                ServiceConfig::default(),
                FleetConfig::new(0).with_device_mix(mix.to_vec()).with_exchange(),
                mixed_workload(8, 25, 1_000, 1),
            ),
            (
                "fleet chaos 25",
                quick_engine(1 << 14, Some(FaultConfig::chaos(25))),
                cached,
                FleetConfig::new(3),
                skewed_workload(8, 25, 1_000, 12, 0.9, 40, 1),
            ),
            (
                "plan chain with a deadline",
                quick_engine(1 << 14, None),
                deadline,
                FleetConfig::new(1),
                plan_workload(PlanShape::Chain, 4, 6, 1_000, 12, 0.75, 40, 1),
            ),
        ];
        let timeline =
            |report: &ServiceReport| TraceExporter::new().timeline_to_json(&report.timeline);
        let mut reports = Vec::new();
        for (name, engine, config, fleet, workload) in &cases {
            let [serial, helped] =
                [1, 2].map(|jobs| serve(Pool::new(jobs), engine, config, fleet, workload));
            assert_eq!(serial.summary(), helped.summary(), "{name}");
            assert_eq!(timeline(&serial), timeline(&helped), "{name}");
            assert!(
                helped.invariant_violations.is_empty(),
                "{name}: {:?}",
                helped.invariant_violations
            );
            reports.push(helped);
        }
        // What each run exists to show.
        let [exchange, chaos, plans] = &reports[..] else { unreachable!() };
        assert!(exchange.cross_device() > 0, "{}", exchange.summary());
        let fleet = chaos.fleet.as_ref().expect("a fleet rollup");
        assert_eq!((fleet.lost(), fleet.drained), (1, 2), "{}", chaos.summary());
        assert!(chaos.cache.as_ref().is_some_and(|c| c.counters.hits > 0), "{}", chaos.summary());
        let summary = plans.summary();
        assert!(plans.plan_requests() > 0 && plans.completed() > 0, "{summary}");
        assert!(plans.deadline_exceeded() > 0, "{summary}");
    }
}
