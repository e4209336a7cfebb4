//! Randomized stress tests for the virtual-time engine: many actors doing
//! interleaved sleeps, channel traffic, barriers, and mutex work must always
//! drain without deadlock, preserve causality, and conserve messages.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use semplar_runtime::sync::{Barrier, Channel, RtMutex};
use semplar_runtime::{simulate, spawn, Dur, Task, TaskCtx, TaskExecutor, TaskStep};

#[test]
fn chaotic_actor_mix_always_drains() {
    for seed in 0..8u64 {
        let sent = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicU64::new(0));
        let s2 = sent.clone();
        let r2 = received.clone();
        simulate(move |rt| {
            let ch: Channel<u64> = Channel::new(&rt);
            let n_workers = 6;
            let msgs_per_worker = 40;
            let mut hs = Vec::new();
            // Producers with randomized pacing.
            for w in 0..n_workers {
                let ch2 = ch.clone();
                let rt2 = rt.clone();
                let s3 = s2.clone();
                hs.push(spawn(&rt, &format!("prod{w}"), move || {
                    let mut rng = StdRng::seed_from_u64(seed * 100 + w);
                    for i in 0..msgs_per_worker {
                        rt2.sleep(Dur::from_micros(rng.gen_range(0u64..50)));
                        ch2.send(w * 1000 + i).unwrap();
                        s3.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            // Consumers.
            for c in 0..2 {
                let ch2 = ch.clone();
                let rt2 = rt.clone();
                let r3 = r2.clone();
                hs.push(spawn(&rt, &format!("cons{c}"), move || {
                    let mut rng = StdRng::seed_from_u64(seed * 77 + c);
                    while ch2.recv().is_ok() {
                        r3.fetch_add(1, Ordering::SeqCst);
                        rt2.sleep(Dur::from_micros(rng.gen_range(0u64..20)));
                    }
                }));
            }
            // A closer that waits for all producers to finish.
            let producers: Vec<_> = hs.drain(0..n_workers as usize).collect();
            for p in producers {
                p.join_unwrap();
            }
            ch.close();
            for h in hs {
                h.join_unwrap();
            }
        });
        assert_eq!(
            sent.load(Ordering::SeqCst),
            received.load(Ordering::SeqCst),
            "seed {seed}: lost or duplicated messages"
        );
        assert_eq!(sent.load(Ordering::SeqCst), 240);
    }
}

/// A producer as a state machine: the thread producers' loop, one
/// iteration per poll.
struct TaskProducer {
    p: u64,
    sent: u64,
    ch: Channel<u64>,
}

impl Task for TaskProducer {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        if self.sent > 0 {
            self.ch.send(self.p * 100 + self.sent - 1).unwrap();
        }
        if self.sent == 20 {
            return TaskStep::Done;
        }
        self.sent += 1;
        TaskStep::Sleep(Dur::from_micros(10))
    }
}

/// A consumer as a state machine: blocked in [`Channel::poll_recv`] where
/// the thread consumers block in `recv`.
struct TaskConsumer {
    c: u64,
    ch: Channel<u64>,
    log: Arc<Mutex<Vec<(u64, u64, u64)>>>,
}

impl Task for TaskConsumer {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        loop {
            match self.ch.poll_recv() {
                Ok(Ok(m)) => (self.log.lock().unwrap()).push((cx.now.as_nanos(), self.c, m)),
                Ok(Err(_)) => return TaskStep::Done,
                Err(wait) => return wait,
            }
        }
    }
}

/// Six producers wake on the same twenty instants and feed one channel
/// drained by two consumers; returns every `(virtual ns, consumer,
/// message)` in the order it was logged. With `mixed`, every other
/// producer is a task, so the same instants collide across both kinds of
/// actor body; with `task_consumer`, so is the second consumer, and a
/// thread and a task share the channel's waiter queue.
fn same_instant_collision_log(mixed: bool, task_consumer: bool) -> Vec<(u64, u64, u64)> {
    simulate(move |rt| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let ch: Channel<u64> = Channel::new(&rt);
        let ex = TaskExecutor::new(&rt, "prod");
        let (mut producers, mut task_producers) = (Vec::new(), Vec::new());
        for p in 0..6u64 {
            let (rt2, ch2) = (rt.clone(), ch.clone());
            if mixed && p % 2 == 1 {
                let task = TaskProducer {
                    p,
                    sent: 0,
                    ch: ch2,
                };
                task_producers.push(ex.spawn(Box::new(task)));
                continue;
            }
            producers.push(spawn(&rt, &format!("prod{p}"), move || {
                for i in 0..20 {
                    rt2.sleep(Dur::from_micros(10));
                    ch2.send(p * 100 + i).unwrap();
                }
            }));
        }
        let (mut consumers, mut task_consumers) = (Vec::new(), Vec::new());
        for c in 0..2u64 {
            let (rt2, ch2, log2) = (rt.clone(), ch.clone(), log.clone());
            if task_consumer && c == 1 {
                let task = TaskConsumer {
                    c,
                    ch: ch2,
                    log: log2,
                };
                task_consumers.push(ex.spawn(Box::new(task)));
                continue;
            }
            consumers.push(spawn(&rt, &format!("cons{c}"), move || {
                while let Ok(m) = ch2.recv() {
                    log2.lock().unwrap().push((rt2.now().as_nanos(), c, m));
                }
            }));
        }
        for p in producers {
            p.join_unwrap();
        }
        for p in task_producers {
            p.join();
        }
        ch.close();
        for c in consumers {
            c.join_unwrap();
        }
        for c in task_consumers {
            c.join();
        }
        let got = log.lock().unwrap().clone();
        got
    })
}

#[test]
fn same_instant_order_repeats_under_host_load() {
    // Spinning host threads keep the OS scheduler busy reshuffling the
    // actor threads; the interleaving must not notice.
    let stop = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let runs = [(false, false), (true, false), (true, true)].map(|(mixed, task_consumer)| {
        let run = || same_instant_collision_log(mixed, task_consumer);
        let first = run();
        let repeats: Vec<_> = (0..10).map(|_| run()).collect();
        ((mixed, task_consumer), first, repeats)
    });
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().unwrap();
    }
    for (arm, first, repeats) in &runs {
        assert_eq!(first.len(), 120);
        for (i, r) in repeats.iter().enumerate() {
            assert_eq!(r, first, "{arm:?}: repeat {i} interleaved differently");
        }
    }
    // A task blocked where a thread would be takes the thread's place in
    // every queue: consumer for consumer, the log does not change.
    assert_eq!(runs[1].1, runs[2].1);
    // Same instants, same messages, whichever kind of body sent them.
    let sorted = |log: &[(u64, u64, u64)]| {
        let mut v: Vec<_> = log.iter().map(|&(t, _, m)| (t, m)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(&runs[0].1), sorted(&runs[1].1));
}

#[test]
fn randomized_barrier_phases_keep_actors_aligned() {
    for seed in 0..4u64 {
        simulate(move |rt| {
            let n = 5;
            let phases = 12;
            let b = Barrier::new(&rt, n);
            let phase_counter = Arc::new(RtMutex::new(&rt, vec![0u32; phases]));
            let mut hs = Vec::new();
            for a in 0..n {
                let b2 = b.clone();
                let rt2 = rt.clone();
                let pc = phase_counter.clone();
                hs.push(spawn(&rt, &format!("a{a}"), move || {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + a as u64);
                    for ph in 0..phases {
                        rt2.sleep(Dur::from_micros(rng.gen_range(1u64..200)));
                        {
                            let mut g = pc.lock();
                            g[ph] += 1;
                        }
                        b2.wait();
                        // After the barrier, everyone must have ticked this
                        // phase.
                        assert_eq!(pc.lock()[ph], n as u32, "phase {ph} desync");
                    }
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
    }
}

#[test]
fn virtual_time_is_monotonic_under_chaos() {
    simulate(|rt| {
        let mut hs = Vec::new();
        for a in 0..10u64 {
            let rt2 = rt.clone();
            hs.push(spawn(&rt, &format!("m{a}"), move || {
                let mut rng = StdRng::seed_from_u64(a);
                let mut last = rt2.now();
                for _ in 0..100 {
                    let d = Dur::from_nanos(rng.gen_range(0u64..10_000));
                    rt2.sleep(d);
                    let now = rt2.now();
                    assert!(now >= last + d, "slept less than requested");
                    last = now;
                }
            }));
        }
        for h in hs {
            h.join_unwrap();
        }
    });
}

#[test]
fn deep_spawn_trees_complete() {
    // Actors recursively spawning actors (like nested File opens spawning
    // I/O threads spawning server handlers).
    fn tree(rt: Arc<dyn semplar_runtime::Runtime>, depth: usize, fanout: usize) -> u64 {
        if depth == 0 {
            rt.sleep(Dur::from_micros(1));
            return 1;
        }
        let total = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for i in 0..fanout {
            let rt2 = rt.clone();
            let t2 = total.clone();
            hs.push(spawn(&rt, &format!("t{depth}-{i}"), move || {
                let leaves = tree(rt2, depth - 1, fanout);
                t2.fetch_add(leaves, Ordering::SeqCst);
            }));
        }
        for h in hs {
            h.join_unwrap();
        }
        total.load(Ordering::SeqCst)
    }
    let leaves = simulate(|rt| tree(rt, 4, 3));
    assert_eq!(leaves, 81);
}
