//! Integration tests of the PIOMan server driving simulated completions.

use std::sync::Arc;

use parking_lot::Mutex;
use piom::{DetectionMethod, LTask, PiomConfig, PiomServer};
use simnet::{SimBuilder, SimDuration, SimSemaphore, SimTime};

/// A rank blocks on a semaphore; a network event at t=5µs kicks the
/// server; the ltask signals. The rank must wake at 5µs + net_sync.
#[test]
fn blocked_rank_wakes_via_ltask() {
    let mut sim = SimBuilder::new().build();
    let sched = sim.scheduler();
    let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off(), &sched);
    let sem = SimSemaphore::new("wait");
    let sem2 = sem.clone();
    server.register_fn(
        "signal-waiter",
        Arc::new(move |s| {
            sem2.signal(s);
            None
        }),
    );
    let woke_at = Arc::new(Mutex::new(SimTime::ZERO));
    let w2 = Arc::clone(&woke_at);
    sim.spawn_rank("app", move |ctx| {
        sem.wait(&ctx);
        *w2.lock() = ctx.now();
    });
    let sv = Arc::clone(&server);
    sched.schedule_at(SimTime(5_000), move |s| sv.kick_net(s));
    sim.run().unwrap();
    assert_eq!(*woke_at.lock(), SimTime(7_000)); // 5µs + 2µs sync
}

/// Several ltasks and several kicks: every kick runs all ltasks once.
#[test]
fn kicks_fan_out_to_all_ltasks() {
    let sim = SimBuilder::new().build();
    let sched = sim.scheduler();
    let server = PiomServer::new(PiomConfig::default(), obs::RankRec::off(), &sched);
    let counts: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(vec![0; 3]));
    let tasks: Vec<LTask> = (0..3)
        .map(|i| {
            let counts = Arc::clone(&counts);
            LTask::new(
                format!("t{i}"),
                Arc::new(move |_| {
                    counts.lock()[i] += 1;
                    None
                }),
            )
        })
        .collect();
    for t in &tasks {
        server.register(t.clone());
    }
    for k in 0..4u64 {
        let sv = Arc::clone(&server);
        sched.schedule_at(SimTime(k * 1_000), move |s| sv.kick_shm(s));
    }
    sim.run().unwrap();
    assert_eq!(*counts.lock(), vec![4, 4, 4]);
    assert_eq!(tasks[0].runs(), 4);
    assert_eq!(server.kicks(), 4);
}

/// Timer-driven detection quantizes reaction to the period; idle-core
/// polling reacts at the sync cost. Measure the gap directly.
#[test]
fn detection_method_controls_reaction_latency() {
    let reaction = |method: DetectionMethod| -> u64 {
        let sim = SimBuilder::new().build();
        let sched = sim.scheduler();
        let server = PiomServer::new(
            PiomConfig {
                method,
                ..PiomConfig::default()
            },
            obs::RankRec::off(),
            &sched,
        );
        let reacted = Arc::new(Mutex::new(None));
        let r2 = Arc::clone(&reacted);
        server.register_fn(
            "note",
            Arc::new(move |s| {
                let mut r = r2.lock();
                if r.is_none() {
                    *r = Some(s.now());
                }
                None
            }),
        );
        server.start(&sched);
        let sv = Arc::clone(&server);
        // The "event" fires at 3µs.
        sched.schedule_at(SimTime(3_000), move |s| sv.kick_net(s));
        let sv2 = Arc::clone(&server);
        sched.schedule_at(SimTime(500_000), move |_| sv2.stop());
        sim.run().unwrap();
        let t = reacted.lock().expect("never reacted");
        t.as_nanos()
    };
    let idle = reaction(DetectionMethod::IdleCorePolling);
    assert_eq!(idle, 5_000); // 3µs event + 2µs sync
    let timer = reaction(DetectionMethod::TimerDriven(SimDuration::micros(50)));
    assert_eq!(timer, 50_000); // first tick
    assert!(timer > idle);
}
