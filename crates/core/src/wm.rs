//! Workload management: per-tenant resource pools with fair queuing and
//! preemption, replacing the flat admission semaphore.
//!
//! A [`ResourcePlan`] names pools (`hive.server.wm.plan`,
//! `name:share=<slots>[,priority=<p>]` entries joined by `;`) and maps
//! sessions onto them (`hive.server.wm.mapping`, first-match `user=pool`
//! rules with a `*=pool` catch-all against `hive.session.user`). With no
//! plan configured the manager degenerates to a single `default` pool
//! whose share is `hive.server.max.concurrent.queries` — the legacy
//! semaphore, except that admission is now *strictly FIFO* (the old
//! `Condvar` semaphore let a fresh arrival barge past threads already
//! waiting on the wakeup path).
//!
//! ## Admission
//!
//! Every statement draws a monotonically increasing ticket and enqueues in
//! its pool. A single dispatch routine — always run under the state lock,
//! on enqueue and on release — hands free slots out:
//!
//! * pools running **under their share** are served first, highest
//!   priority, then largest deficit, then oldest head ticket;
//! * with no under-share waiters, idle capacity is lent to any waiting
//!   pool (work-conserving borrowing), highest priority / oldest first.
//!
//! Waiters block until the dispatcher grants *their* ticket; slots are
//! only ever assigned by the dispatcher, so queue order is absolute.
//!
//! ## Preemption
//!
//! When an under-share waiter finds every slot taken, it may reclaim a
//! *borrowed* slot: the most recently admitted statement of the
//! lowest-priority pool running over its share — provided that pool's
//! priority is strictly below the waiter's — is cancelled through its
//! [`CancelToken`]. Cancellation is cooperative: the victim unwinds with
//! [`HiveError::Preempted`] at the next engine checkpoint, the server
//! releases its slot and re-queues it *at the front* of its pool with its
//! original ticket, and it re-runs from scratch (never partial results).
//! A statement preempted [`PREEMPTION_LIMIT`] times becomes immune and
//! runs to completion.

use hive_common::config::{keys, knobs};
use hive_common::{CancelToken, HiveConf, HiveError, Result};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One named pool of a resource plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    pub name: String,
    /// Concurrency share: slots this pool owns outright.
    pub share: u64,
    /// Cross-pool scheduling priority; higher wins. Preemption only ever
    /// flows from strictly-higher- to strictly-lower-priority pools.
    pub priority: i64,
}

/// A parsed resource plan: pools plus session→pool mapping rules.
#[derive(Debug, Clone)]
pub struct ResourcePlan {
    pools: Vec<PoolSpec>,
    /// `(user-or-*, pool index)`, in declaration order; first match wins.
    mappings: Vec<(String, usize)>,
    /// Whether `hive.server.wm.plan` was actually set. `false` means the
    /// legacy single-pool compatibility plan: no wm metrics, no pool
    /// labels, byte-identical server output.
    configured: bool,
}

impl ResourcePlan {
    /// Parse the plan and mapping knobs; an empty plan yields the legacy
    /// single `default` pool sized by `hive.server.max.concurrent.queries`.
    pub fn from_conf(conf: &HiveConf) -> Result<ResourcePlan> {
        let raw = conf.get(knobs::SERVER_WM_PLAN);
        let raw = raw.trim();
        let pools = if raw.is_empty() {
            vec![PoolSpec {
                name: "default".into(),
                share: conf.get_i64(keys::SERVER_MAX_CONCURRENT)?.max(1) as u64,
                priority: 0,
            }]
        } else {
            let mut pools = Vec::new();
            for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
                pools.push(Self::parse_pool(entry.trim())?);
            }
            if pools.is_empty() {
                return Err(HiveError::Config(format!(
                    "`{}` declares no pools: `{raw}`",
                    keys::SERVER_WM_PLAN
                )));
            }
            for (i, p) in pools.iter().enumerate() {
                if pools[..i].iter().any(|q| q.name == p.name) {
                    return Err(HiveError::Config(format!(
                        "duplicate pool `{}` in `{}`",
                        p.name,
                        keys::SERVER_WM_PLAN
                    )));
                }
            }
            pools
        };
        let mut mappings = Vec::new();
        let map_raw = conf.get(knobs::SERVER_WM_MAPPING);
        for rule in map_raw.split(';').filter(|e| !e.trim().is_empty()) {
            let (user, pool) = rule.trim().split_once('=').ok_or_else(|| {
                HiveError::Config(format!(
                    "`{}` rule `{rule}` is not `user=pool`",
                    keys::SERVER_WM_MAPPING
                ))
            })?;
            let idx = pools
                .iter()
                .position(|p| p.name == pool.trim())
                .ok_or_else(|| {
                    HiveError::Config(format!(
                        "`{}` maps to unknown pool `{}`",
                        keys::SERVER_WM_MAPPING,
                        pool.trim()
                    ))
                })?;
            mappings.push((user.trim().to_string(), idx));
        }
        Ok(ResourcePlan {
            pools,
            mappings,
            configured: !raw.is_empty(),
        })
    }

    /// One `name:share=<slots>[,priority=<p>]` entry.
    fn parse_pool(entry: &str) -> Result<PoolSpec> {
        let bad = |why: &str| {
            HiveError::Config(format!(
                "bad pool spec `{entry}` in `{}`: {why}",
                keys::SERVER_WM_PLAN
            ))
        };
        let (name, attrs) = entry
            .split_once(':')
            .ok_or_else(|| bad("expected `name:share=<slots>`"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(bad("empty pool name"));
        }
        let mut share: Option<u64> = None;
        let mut priority = 0i64;
        for attr in attrs.split(',').filter(|a| !a.trim().is_empty()) {
            let (k, v) = attr
                .trim()
                .split_once('=')
                .ok_or_else(|| bad("attributes are `key=value`"))?;
            match k.trim() {
                "share" => {
                    let n: u64 = v.trim().parse().map_err(|_| bad("share must be integer"))?;
                    if n == 0 {
                        return Err(bad("share must be >= 1"));
                    }
                    share = Some(n);
                }
                "priority" => {
                    priority = v
                        .trim()
                        .parse()
                        .map_err(|_| bad("priority must be integer"))?;
                }
                other => return Err(bad(&format!("unknown attribute `{other}`"))),
            }
        }
        Ok(PoolSpec {
            name: name.to_string(),
            share: share.ok_or_else(|| bad("missing `share=`"))?,
            priority,
        })
    }

    pub fn pools(&self) -> &[PoolSpec] {
        &self.pools
    }

    /// Whether an explicit (multi-tenant) plan was configured.
    pub fn configured(&self) -> bool {
        self.configured
    }

    /// Total slots across all pools.
    pub fn total_slots(&self) -> u64 {
        self.pools.iter().map(|p| p.share).sum()
    }

    /// Pool for a session user: first matching mapping rule (`*` matches
    /// anyone), else pool 0.
    pub fn pool_for(&self, user: &str) -> usize {
        self.mappings
            .iter()
            .find(|(u, _)| u == user || u == "*")
            .map(|&(_, idx)| idx)
            .unwrap_or(0)
    }
}

/// One admitted-and-running statement, as the victim-selection pass sees it.
struct Running {
    ticket: u64,
    pool: usize,
    cancel: Arc<CancelToken>,
    /// Times this statement has already been preempted; at
    /// [`PREEMPTION_LIMIT`] it becomes immune.
    preempt_count: u64,
}

#[derive(Default)]
struct WmState {
    /// Per-pool FIFO of waiting tickets.
    queues: Vec<VecDeque<u64>>,
    /// Tickets the dispatcher has granted but whose threads have not yet
    /// observed the grant.
    granted: HashSet<u64>,
    running: Vec<Running>,
    /// Admitted statements per pool (granted included).
    active: Vec<u64>,
    total_active: u64,
    next_ticket: u64,
}

/// What `admit` hands back: the slot, its pool, and the cancellation
/// handle execution must poll. Surrendered through
/// [`WorkloadManager::release`] / [`WorkloadManager::release_preempted`].
pub struct AdmissionGrant {
    pub pool: usize,
    pub ticket: u64,
    pub cancel: Arc<CancelToken>,
    /// Whether the statement had to wait for a slot at all.
    pub queued: bool,
    /// Wall-clock seconds spent queued (0.0 when `queued` is false).
    pub queue_wait_s: f64,
    /// Preemptions this statement has survived so far.
    pub preempt_count: u64,
}

/// Re-admission handle for a preempted statement: same ticket, bumped
/// count, queued at the *front* of its pool.
pub struct Requeue {
    pub ticket: u64,
    pub preempt_count: u64,
}

/// Times one statement may be preempted before it becomes immune and runs
/// to completion (starvation bound for low-priority pools).
pub const PREEMPTION_LIMIT: u64 = 8;

/// The admission layer: resource pools, FIFO-fair queues, preemption.
pub struct WorkloadManager {
    plan: ResourcePlan,
    state: Mutex<WmState>,
    cv: Condvar,
    /// High-water mark of concurrently admitted statements.
    peak: AtomicU64,
    /// Total grants (a preempted statement's re-run counts again).
    admitted: AtomicU64,
    /// Preemption requests fired (victim cancellations).
    preemptions: AtomicU64,
    /// Statements actually re-queued after unwinding with `Preempted`.
    requeues: AtomicU64,
}

impl WorkloadManager {
    pub fn new(plan: ResourcePlan) -> WorkloadManager {
        let n = plan.pools.len();
        WorkloadManager {
            plan,
            state: Mutex::new(WmState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                active: vec![0; n],
                ..WmState::default()
            }),
            cv: Condvar::new(),
            peak: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            requeues: AtomicU64::new(0),
        }
    }

    pub fn plan(&self) -> &ResourcePlan {
        &self.plan
    }

    pub fn pool_name(&self, pool: usize) -> &str {
        &self.plan.pools[pool].name
    }

    /// Resolve the pool a statement with this configuration lands in.
    pub fn resolve_pool(&self, conf: &HiveConf) -> usize {
        self.plan.pool_for(&conf.get(knobs::SESSION_USER))
    }

    /// Block until this statement holds a slot in `pool`. Pass the
    /// [`Requeue`] of a preempted run to re-enter at the front of the pool
    /// queue with the original ticket.
    pub fn admit(&self, pool: usize, requeue: Option<Requeue>) -> AdmissionGrant {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (ticket, preempt_count, front) = match requeue {
            Some(r) => (r.ticket, r.preempt_count, true),
            None => {
                let t = st.next_ticket;
                st.next_ticket += 1;
                (t, 0, false)
            }
        };
        if front {
            st.queues[pool].push_front(ticket);
        } else {
            st.queues[pool].push_back(ticket);
        }
        if self.dispatch(&mut st) {
            self.cv.notify_all();
        }
        let mut queued = false;
        let t0 = Instant::now();
        while !st.granted.remove(&ticket) {
            queued = true;
            self.maybe_preempt(&mut st, pool);
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let queue_wait_s = if queued {
            t0.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let cancel = Arc::new(CancelToken::new());
        st.running.push(Running {
            ticket,
            pool,
            cancel: Arc::clone(&cancel),
            preempt_count,
        });
        self.peak.fetch_max(st.total_active, Ordering::Relaxed);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        AdmissionGrant {
            pool,
            ticket,
            cancel,
            queued,
            queue_wait_s,
            preempt_count,
        }
    }

    /// Surrender a finished statement's slot.
    pub fn release(&self, grant: &AdmissionGrant) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.running.retain(|r| r.ticket != grant.ticket);
        st.active[grant.pool] -= 1;
        st.total_active -= 1;
        if self.dispatch(&mut st) {
            self.cv.notify_all();
        }
    }

    /// Surrender a *preempted* statement's slot and get the handle that
    /// re-queues it at the front of its pool. The caller loops back into
    /// [`WorkloadManager::admit`] and re-runs the statement from scratch.
    pub fn release_preempted(&self, grant: &AdmissionGrant) -> Requeue {
        self.release(grant);
        self.requeues.fetch_add(1, Ordering::Relaxed);
        Requeue {
            ticket: grant.ticket,
            preempt_count: grant.preempt_count + 1,
        }
    }

    /// Hand out free slots, strictly from queue heads. Under-share pools
    /// first (priority, then deficit, then oldest ticket); then
    /// work-conserving borrowing (priority, then oldest ticket). Returns
    /// whether anything was granted.
    fn dispatch(&self, st: &mut WmState) -> bool {
        let total = self.plan.total_slots();
        let mut any = false;
        while st.total_active < total {
            let pick = self.pick_pool(st);
            let Some(p) = pick else { break };
            let ticket = st.queues[p].pop_front().expect("picked pool has a head");
            st.granted.insert(ticket);
            st.active[p] += 1;
            st.total_active += 1;
            any = true;
        }
        any
    }

    fn pick_pool(&self, st: &WmState) -> Option<usize> {
        let waiting = (0..self.plan.pools.len()).filter(|&p| !st.queues[p].is_empty());
        let key = |p: usize| {
            let spec = &self.plan.pools[p];
            let deficit = spec.share as i64 - st.active[p] as i64;
            let head = st.queues[p][0];
            (deficit > 0, spec.priority, deficit, std::cmp::Reverse(head))
        };
        // max_by_key: under-share beats borrowing, then priority, then
        // deficit, then the oldest (smallest) head ticket.
        waiting.max_by_key(|&p| key(p))
    }

    /// Fire a preemption on behalf of an under-share waiter in `pool`, if
    /// one is warranted: all slots taken, and some strictly-lower-priority
    /// pool is running over its share. The victim is the most recently
    /// admitted statement of the lowest-priority over-share pool; immune
    /// statements (preempted [`PREEMPTION_LIMIT`] times already) and ones
    /// already cancelled are skipped, and cancellations still unwinding
    /// count against what the pool can use — its deficit, but never more
    /// slots than it has waiters — so one waiter doesn't shoot a new victim
    /// on every spurious wakeup.
    fn maybe_preempt(&self, st: &mut WmState, pool: usize) {
        let spec = &self.plan.pools[pool];
        let deficit = spec.share as i64 - st.active[pool] as i64;
        if deficit <= 0 || st.total_active < self.plan.total_slots() {
            return;
        }
        let pending = st
            .running
            .iter()
            .filter(|r| r.cancel.is_cancelled())
            .count() as i64;
        if pending >= deficit.min(st.queues[pool].len() as i64) {
            return;
        }
        let victim = st
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                self.plan.pools[r.pool].priority < spec.priority
                    && st.active[r.pool] > self.plan.pools[r.pool].share
                    && r.preempt_count < PREEMPTION_LIMIT
                    && !r.cancel.is_cancelled()
            })
            // Lowest-priority pool; within it, the most recently admitted
            // (largest position in the running list).
            .max_by_key(|(i, r)| (std::cmp::Reverse(self.plan.pools[r.pool].priority), *i));
        if let Some((_, victim)) = victim {
            victim.cancel.cancel(&format!(
                "slot of pool `{}` reclaimed by pool `{}`",
                self.plan.pools[victim.pool].name, spec.name
            ));
            self.preemptions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total slots across all pools (the legacy knob's value when no plan
    /// is configured).
    pub fn total_slots(&self) -> u64 {
        self.plan.total_slots()
    }

    /// High-water mark of concurrently admitted statements.
    pub fn admitted_peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total grants since startup (re-runs of preempted statements count).
    pub fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Victim cancellations fired so far.
    pub fn preemptions_fired(&self) -> u64 {
        self.preemptions.load(Ordering::Relaxed)
    }

    /// Statements re-queued after unwinding with `Preempted`.
    pub fn requeues(&self) -> u64 {
        self.requeues.load(Ordering::Relaxed)
    }

    /// Waiting statements in a pool's queue (tests / introspection).
    pub fn queue_depth(&self, pool: usize) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).queues[pool].len()
    }

    /// Admitted statements currently holding slots in a pool.
    pub fn active_count(&self, pool: usize) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).active[pool]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn conf() -> HiveConf {
        HiveConf::new()
    }

    fn wm_with(plan: &str, mapping: &str, max: &str) -> WorkloadManager {
        let c = HiveConf::new()
            .with(keys::SERVER_WM_PLAN, plan)
            .with(keys::SERVER_WM_MAPPING, mapping)
            .with(keys::SERVER_MAX_CONCURRENT, max);
        WorkloadManager::new(ResourcePlan::from_conf(&c).unwrap())
    }

    #[test]
    fn empty_plan_is_the_legacy_single_pool() {
        let c = conf().with(keys::SERVER_MAX_CONCURRENT, "5");
        let plan = ResourcePlan::from_conf(&c).unwrap();
        assert!(!plan.configured());
        assert_eq!(plan.pools().len(), 1);
        assert_eq!(plan.pools()[0].name, "default");
        assert_eq!(plan.pools()[0].share, 5);
        assert_eq!(plan.pool_for("anyone"), 0);
    }

    #[test]
    fn plan_parsing_and_mapping() {
        let c = conf()
            .with(
                keys::SERVER_WM_PLAN,
                "etl:share=3;interactive:share=2,priority=10",
            )
            .with(keys::SERVER_WM_MAPPING, "ann=interactive;*=etl");
        let plan = ResourcePlan::from_conf(&c).unwrap();
        assert!(plan.configured());
        assert_eq!(plan.total_slots(), 5);
        assert_eq!(plan.pools()[1].priority, 10);
        assert_eq!(plan.pool_for("ann"), 1);
        assert_eq!(plan.pool_for("bob"), 0);
    }

    #[test]
    fn bad_plans_are_rejected() {
        for (plan, mapping) in [
            ("etl", ""),                       // no attrs
            ("etl:share=0", ""),               // zero share
            ("etl:share=x", ""),               // non-integer
            ("etl:share=1;etl:share=2", ""),   // duplicate
            ("etl:share=1,color=red", ""),     // unknown attribute
            ("etl:share=1", "ann=interactiv"), // unknown pool
            ("etl:share=1", "annetl"),         // not user=pool
        ] {
            let c = conf()
                .with(keys::SERVER_WM_PLAN, plan)
                .with(keys::SERVER_WM_MAPPING, mapping);
            assert!(ResourcePlan::from_conf(&c).is_err(), "{plan} / {mapping}");
        }
    }

    /// Satellite: the default single-pool queue is strictly FIFO. The old
    /// Condvar semaphore let a fresh arrival barge past parked waiters;
    /// here slot grants follow ticket order exactly. Arrival order is made
    /// deterministic by waiting for each thread to be *visibly queued*
    /// before starting the next.
    #[test]
    fn single_pool_admission_is_strictly_fifo() {
        let wm = Arc::new(wm_with("", "", "1"));
        let holder = wm.admit(0, None);
        assert!(!holder.queued);

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..6 {
            let wm2 = Arc::clone(&wm);
            let order2 = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let g = wm2.admit(0, None);
                order2.lock().unwrap().push(i);
                // Hold briefly so the next grant really waits on release.
                thread::sleep(Duration::from_millis(2));
                wm2.release(&g);
            }));
            // Deterministic arrival order: don't launch the next waiter
            // until this one is parked in the queue.
            while wm.queue_depth(0) < i + 1 {
                thread::yield_now();
            }
        }
        wm.release(&holder);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(wm.admitted_peak(), 1);
        assert_eq!(wm.admitted_total(), 7);
    }

    #[test]
    fn borrowing_is_work_conserving() {
        let wm = wm_with("etl:share=1;fast:share=1,priority=5", "", "8");
        // etl may borrow fast's idle slot...
        let a = wm.admit(0, None);
        let b = wm.admit(0, None);
        assert!(!a.queued && !b.queued);
        assert_eq!(wm.active_count(0), 2);
        wm.release(&a);
        wm.release(&b);
    }

    #[test]
    fn under_share_pool_reclaims_via_preemption() {
        let wm = Arc::new(wm_with("etl:share=1;fast:share=1,priority=5", "", "8"));
        let a = wm.admit(0, None); // etl, own slot
        let b = wm.admit(0, None); // etl, borrowed from fast
                                   // fast arrives: under share, total full, etl over share and lower
                                   // priority → the youngest etl statement (b) gets cancelled.
        let wm2 = Arc::clone(&wm);
        let t = thread::spawn(move || {
            let g = wm2.admit(1, None);
            assert!(g.queued);
            wm2.release(&g);
        });
        while !b.cancel.is_cancelled() {
            thread::yield_now();
        }
        assert!(!a.cancel.is_cancelled(), "oldest borrower survives");
        // The victim unwinds and surrenders its slot; the waiter gets it.
        let requeue = wm.release_preempted(&b);
        t.join().unwrap();
        assert_eq!(requeue.ticket, b.ticket);
        assert_eq!(requeue.preempt_count, 1);
        assert_eq!(wm.preemptions_fired(), 1);
        assert_eq!(wm.requeues(), 1);
        // Re-admission at the front of etl's queue with the old ticket.
        let again = wm.admit(0, Some(requeue));
        assert_eq!(again.ticket, b.ticket);
        assert_eq!(again.preempt_count, 1);
        wm.release(&again);
        wm.release(&a);
    }

    /// The fairness guarantee as grant *order*, no clock involved: with
    /// every slot held by etl (two of them borrowed) and more etl already
    /// parked, an interactive arrival costs exactly one preemption — the
    /// youngest borrower — and takes the reclaimed slot ahead of every
    /// etl statement that was waiting before it arrived.
    #[test]
    fn interactive_arrival_overtakes_parked_etl_after_one_preemption() {
        let wm = Arc::new(wm_with(
            "interactive:share=2,priority=10;etl:share=2",
            "",
            "8",
        ));
        let (interactive, etl) = (0, 1);
        let running: Vec<_> = (0..4).map(|_| wm.admit(etl, None)).collect();
        assert!(running.iter().all(|g| !g.queued), "idle slots are lent");

        // Each waiter records its label when granted, then hands its grant
        // back over the join handle.
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiter = |pool: usize, label: &'static str| {
            let (wm, order) = (Arc::clone(&wm), Arc::clone(&order));
            thread::spawn(move || {
                let g = wm.admit(pool, None);
                order.lock().unwrap().push(label);
                g
            })
        };
        let mut parked = Vec::new();
        for (i, label) in ["etl-0", "etl-1"].into_iter().enumerate() {
            parked.push(waiter(etl, label));
            while wm.queue_depth(etl) < i + 1 {
                thread::yield_now();
            }
        }
        let arrival = waiter(interactive, "interactive");
        while wm.preemptions_fired() == 0 {
            thread::yield_now();
        }
        let cancelled: Vec<bool> = running.iter().map(|g| g.cancel.is_cancelled()).collect();
        assert_eq!(cancelled, [false, false, false, true], "youngest borrower");
        assert!(
            order.lock().unwrap().is_empty(),
            "a full server grants nothing"
        );

        // The victim unwinds: that one release is all the arrival needs.
        wm.release_preempted(&running[3]);
        while order.lock().unwrap().is_empty() {
            thread::yield_now();
        }
        assert_eq!(*order.lock().unwrap(), ["interactive"]);
        let g = arrival.join().unwrap();
        assert!(g.queued);
        assert_eq!(wm.queue_depth(etl), 2, "parked etl waiters were overtaken");
        assert_eq!(wm.preemptions_fired(), 1);

        // Drain: the parked etl statements then run in ticket order.
        wm.release(&g);
        let mut parked = parked.into_iter().map(|h| h.join().unwrap());
        let g0 = parked.next().unwrap();
        assert_eq!(*order.lock().unwrap(), ["interactive", "etl-0"]);
        for g in running[..3].iter().chain([&g0]) {
            wm.release(g);
        }
        wm.release(&parked.next().unwrap());
        assert_eq!(wm.preemptions_fired(), 1);
    }

    /// A pool two slots short but with one waiter can use one slot: a
    /// second dispatch of that waiter (a spurious wakeup) fires nothing
    /// while the first victim is still unwinding.
    #[test]
    fn preemptions_in_flight_are_bounded_by_the_pools_waiters() {
        let wm = wm_with("interactive:share=2,priority=10;etl:share=2", "", "8");
        let (interactive, etl) = (0, 1);
        let running: Vec<_> = (0..4).map(|_| wm.admit(etl, None)).collect();
        {
            let mut st = wm.state.lock().unwrap();
            st.queues[interactive].push_back(99);
            wm.maybe_preempt(&mut st, interactive);
            wm.maybe_preempt(&mut st, interactive);
        }
        assert_eq!(wm.preemptions_fired(), 1, "one waiter, one victim");
        let cancelled = running.iter().filter(|g| g.cancel.is_cancelled()).count();
        assert_eq!(cancelled, 1);
        for g in &running {
            wm.release(g);
        }
    }

    #[test]
    fn preemption_respects_priority_and_immunity() {
        // Equal priorities: never preempt.
        let wm = Arc::new(wm_with("a:share=1;b:share=1", "", "8"));
        let x = wm.admit(0, None);
        let y = wm.admit(0, None); // borrows b's slot
        let wm2 = Arc::clone(&wm);
        let t = thread::spawn(move || {
            let g = wm2.admit(1, None);
            wm2.release(&g);
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!x.cancel.is_cancelled() && !y.cancel.is_cancelled());
        wm.release(&y); // waiter proceeds normally
        t.join().unwrap();
        wm.release(&x);
        assert_eq!(wm.preemptions_fired(), 0);
    }
}
