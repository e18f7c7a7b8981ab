//! Admission control: per-tenant token buckets and the deadline-bounded
//! micro-batch queue.
//!
//! The serving engine never queues unboundedly. A request is either
//! admitted into the bounded [`BatchQueue`] or refused **immediately** with
//! an explicit `overloaded` response — back-pressure the client can see and
//! act on, instead of latency silently growing without bound. Two gates run
//! in order:
//!
//! 1. [`RateLimiter`] — one lazily-created token bucket per tenant. Buckets
//!    refill continuously at `rate` tokens/second up to `burst`; a request
//!    costs one token. A tenant that exhausts its bucket is refused without
//!    touching the queue, so one hot client cannot starve the rest.
//! 2. [`BatchQueue`] — a bounded queue drained by the single batcher
//!    thread in **micro-batches**: the first waiting item opens a batch,
//!    which closes as soon as `batch_max` items are pending or the batch
//!    `deadline` elapses, whichever is first. Under a backlog the deadline
//!    is never paid (the batch fills instantly); under a trickle it bounds
//!    the worst-case queueing delay a request can suffer for the benefit of
//!    batch-sharing. `deadline = 0`, the server's default, has no window:
//!    the batch is whatever is queued when the consumer asks, up to
//!    `batch_max`, and what arrives during a drain forms the next batch.
//!
//! When a backlog forces a batch to leave items behind, the drain is
//! **earliest-deadline-first**, not FIFO: items whose own deadline expires
//! soonest are taken first (deadline-less items last, FIFO within ties), so
//! a tight-deadline request stuck behind a wall of lax ones is not timed
//! out by queueing order alone. Construct with
//! [`BatchQueue::with_deadline_fn`] to supply the per-item deadline;
//! [`BatchQueue::new`] treats every item as deadline-less, which degrades
//! to exact FIFO.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One tenant's bucket: a continuous refill clocked on demand.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refreshed: Instant,
}

/// Per-tenant token-bucket rate limiter (see the module docs).
#[derive(Debug)]
pub struct RateLimiter {
    /// Tokens per second granted to each tenant; `None` disables limiting.
    rate: Option<f64>,
    /// Bucket capacity (maximum burst a quiet tenant can spend at once).
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter granting each tenant `rate` requests/second with
    /// bursts up to `burst`. A non-finite or non-positive `rate` disables
    /// limiting entirely (every admit succeeds).
    pub fn new(rate: f64, burst: f64) -> Self {
        RateLimiter {
            rate: (rate.is_finite() && rate > 0.0).then_some(rate),
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Charges one token from `tenant`'s bucket, creating it brim-full on
    /// first sight. Returns `false` when the bucket is empty — the caller
    /// must refuse the request.
    pub fn admit(&self, tenant: &str) -> bool {
        self.admit_at(tenant, Instant::now())
    }

    /// [`RateLimiter::admit`] with an explicit clock, so tests can script
    /// exact refill timelines.
    pub fn admit_at(&self, tenant: &str, now: Instant) -> bool {
        let Some(rate) = self.rate else {
            return true;
        };
        let mut buckets = self.buckets.lock().expect("rate limiter poisoned"); // lock: admission.buckets
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.burst,
            refreshed: now,
        });
        let elapsed = now
            .saturating_duration_since(bucket.refreshed)
            .as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate).min(self.burst);
        bucket.refreshed = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tenants with a bucket so far (observability only).
    pub fn tenants(&self) -> usize {
        self.buckets.lock().expect("rate limiter poisoned").len() // lock: admission.buckets
    }
}

#[derive(Debug)]
struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer queue drained in deadline-bounded micro-batches
/// by one consumer (see the module docs).
#[derive(Debug)]
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    arrived: Condvar,
    capacity: usize,
    batch_max: usize,
    deadline: Duration,
    /// Per-item deadline used for earliest-deadline-first drain order;
    /// `None` means the item has no deadline and drains after all that do.
    deadline_of: fn(&T) -> Option<Instant>,
}

/// The [`BatchQueue::new`] default: no item carries a deadline, so the
/// earliest-deadline-first drain degrades to exact FIFO.
fn no_deadline<T>(_: &T) -> Option<Instant> {
    None
}

impl<T> BatchQueue<T> {
    /// Creates a queue holding at most `capacity` waiting items, drained in
    /// batches of at most `batch_max` (both clamped to ≥ 1) after at most
    /// `deadline` of batch-forming delay. Items are treated as
    /// deadline-less (exact FIFO drain); see
    /// [`BatchQueue::with_deadline_fn`].
    pub fn new(capacity: usize, batch_max: usize, deadline: Duration) -> Self {
        BatchQueue::with_deadline_fn(capacity, batch_max, deadline, no_deadline::<T>)
    }

    /// [`BatchQueue::new`] with a per-item deadline accessor: when a drain
    /// cannot take everything, the items whose deadlines expire soonest are
    /// taken first (deadline-less items last, FIFO within ties), and the
    /// items left behind keep their arrival order.
    pub fn with_deadline_fn(
        capacity: usize,
        batch_max: usize,
        deadline: Duration,
        deadline_of: fn(&T) -> Option<Instant>,
    ) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
            batch_max: batch_max.max(1),
            deadline,
            deadline_of,
        }
    }

    /// Admits `item`, or returns it when the queue is full or closed — the
    /// caller answers `overloaded` (full) or drops the work (shutdown).
    /// Never blocks.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("batch queue poisoned"); // lock: admission.queue
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.arrived.notify_one();
        Ok(())
    }

    /// Blocks until a micro-batch is ready and returns it; `None` once the
    /// queue is closed *and* drained (consumer shutdown). The first waiting
    /// item opens the batch; it closes at `batch_max` items or after the
    /// configured deadline, whichever comes first.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut state = self.state.lock().expect("batch queue poisoned"); // lock: admission.queue
                                                                          // Wait for the opening item.
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).expect("batch queue poisoned"); // lock: admission.queue
        }
        // Batch-forming window: absorb arrivals until full or deadline.
        let opened = Instant::now();
        while state.items.len() < self.batch_max && !state.closed {
            let elapsed = opened.elapsed();
            if elapsed >= self.deadline {
                break;
            }
            let (next, timeout) = self
                .arrived
                .wait_timeout(state, self.deadline - elapsed) // lock: admission.queue
                .expect("batch queue poisoned");
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = state.items.len().min(self.batch_max);
        if take == state.items.len() {
            // Taking everything: selection order is irrelevant, skip it.
            return Some(state.items.drain(..).collect());
        }
        // Earliest-deadline-first selection (see the module docs): rank by
        // (has-no-deadline, deadline, arrival) so tight deadlines drain
        // first, deadline-less items last, FIFO within ties.
        let mut order: Vec<usize> = (0..state.items.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let d = (self.deadline_of)(&state.items[i]);
            (d.is_none(), d, i)
        });
        order.truncate(take);
        let mut slots: Vec<Option<T>> = state.items.drain(..).map(Some).collect();
        let batch: Vec<T> = order.iter().filter_map(|&i| slots[i].take()).collect();
        // The unselected remainder keeps its arrival order.
        state.items.extend(slots.into_iter().flatten());
        Some(batch)
    }

    /// Closes the queue: future pushes fail, the consumer drains what is
    /// left and then gets `None`.
    pub fn close(&self) {
        self.state.lock().expect("batch queue poisoned").closed = true; // lock: admission.queue
        self.arrived.notify_all();
    }

    /// Items currently waiting (observability only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("batch queue poisoned").items.len() // lock: admission.queue
    }

    /// `true` when no item is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn bucket_refills_at_rate_and_caps_at_burst() {
        let limiter = RateLimiter::new(10.0, 3.0);
        let t0 = Instant::now();
        // Burst of 3, then dry.
        assert!(limiter.admit_at("a", t0));
        assert!(limiter.admit_at("a", t0));
        assert!(limiter.admit_at("a", t0));
        assert!(!limiter.admit_at("a", t0));
        // 100 ms at 10/s refills one token exactly.
        assert!(limiter.admit_at("a", t0 + Duration::from_millis(100)));
        assert!(!limiter.admit_at("a", t0 + Duration::from_millis(100)));
        // A long sleep refills to the cap, not beyond.
        let later = t0 + Duration::from_secs(3600);
        assert!(limiter.admit_at("a", later));
        assert!(limiter.admit_at("a", later));
        assert!(limiter.admit_at("a", later));
        assert!(!limiter.admit_at("a", later));
    }

    #[test]
    fn tenants_are_isolated_and_unlimited_mode_works() {
        let limiter = RateLimiter::new(1.0, 1.0);
        let t0 = Instant::now();
        assert!(limiter.admit_at("a", t0));
        assert!(!limiter.admit_at("a", t0), "a is dry");
        assert!(limiter.admit_at("b", t0), "b has its own bucket");
        assert_eq!(limiter.tenants(), 2);

        let open = RateLimiter::new(0.0, 1.0);
        for _ in 0..1000 {
            assert!(open.admit_at("anyone", t0));
        }
        assert!(RateLimiter::new(f64::NAN, 1.0).admit_at("x", t0));
    }

    #[test]
    fn queue_bounds_and_refuses_when_full() {
        let queue = BatchQueue::new(2, 8, Duration::ZERO);
        assert!(queue.push(1).is_ok());
        assert!(queue.push(2).is_ok());
        assert_eq!(queue.push(3), Err(3), "full queue refuses, never blocks");
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.next_batch(), Some(vec![1, 2]));
        assert!(queue.is_empty());
    }

    #[test]
    fn deadline_zero_dispatches_immediately() {
        let queue = BatchQueue::new(16, 8, Duration::ZERO);
        queue.push(7).unwrap();
        assert_eq!(queue.next_batch(), Some(vec![7]));
    }

    #[test]
    fn batch_max_splits_a_backlog_without_paying_the_deadline() {
        let queue = BatchQueue::new(16, 3, Duration::from_secs(3600));
        for i in 0..6 {
            queue.push(i).unwrap();
        }
        // Full batches form instantly despite the huge deadline.
        let start = Instant::now();
        assert_eq!(queue.next_batch(), Some(vec![0, 1, 2]));
        assert_eq!(queue.next_batch(), Some(vec![3, 4, 5]));
        assert!(start.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn partial_batch_pays_the_deadline_then_dispatches() {
        let queue = BatchQueue::new(16, 3, Duration::from_millis(30));
        queue.push(42).unwrap();
        let start = Instant::now();
        assert_eq!(queue.next_batch(), Some(vec![42]));
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(30),
            "an unfilled batch must wait out the forming deadline, waited {waited:?}"
        );
    }

    #[test]
    fn deadline_absorbs_trickling_arrivals_into_one_batch() {
        let queue = Arc::new(BatchQueue::new(16, 64, Duration::from_millis(200)));
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                for i in 0..4 {
                    queue.push(i).unwrap();
                    thread::sleep(Duration::from_millis(10));
                }
            })
        };
        let batch = queue.next_batch().unwrap();
        producer.join().unwrap();
        assert!(
            batch.len() >= 2,
            "the deadline window must absorb more than the opening item, got {batch:?}"
        );
    }

    #[test]
    fn backlog_drains_earliest_deadline_first_with_fifo_ties() {
        let t0 = Instant::now();
        let soon = t0 + Duration::from_secs(1);
        let late = t0 + Duration::from_secs(60);
        let queue: BatchQueue<(u32, Option<Instant>)> =
            BatchQueue::with_deadline_fn(16, 2, Duration::ZERO, |item| item.1);
        // Arrival order: lax, deadline-less, tight, tight.
        queue.push((0, Some(late))).unwrap();
        queue.push((1, None)).unwrap();
        queue.push((2, Some(soon))).unwrap();
        queue.push((3, Some(soon))).unwrap();
        let ids = |batch: Vec<(u32, Option<Instant>)>| -> Vec<u32> {
            batch.into_iter().map(|(id, _)| id).collect()
        };
        // The two tight-deadline items jump the queue, FIFO between them.
        assert_eq!(ids(queue.next_batch().unwrap()), vec![2, 3]);
        // The remainder kept its arrival order: lax deadline before none.
        assert_eq!(ids(queue.next_batch().unwrap()), vec![0, 1]);
    }

    #[test]
    fn deadline_less_queue_stays_fifo() {
        let queue = BatchQueue::new(16, 2, Duration::ZERO);
        for i in 0..5 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.next_batch(), Some(vec![0, 1]));
        assert_eq!(queue.next_batch(), Some(vec![2, 3]));
        assert_eq!(queue.next_batch(), Some(vec![4]));
    }

    #[test]
    fn close_wakes_consumer_and_refuses_producers() {
        let queue = Arc::new(BatchQueue::<u32>::new(4, 4, Duration::from_secs(3600)));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.next_batch())
        };
        // Give the consumer a beat to block on the empty queue.
        thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(queue.push(1), Err(1), "closed queue refuses");
        // Close with residue: drain first, then None.
        let residue = BatchQueue::new(4, 2, Duration::ZERO);
        residue.push(1).unwrap();
        residue.push(2).unwrap();
        residue.push(3).unwrap();
        residue.close();
        assert_eq!(residue.next_batch(), Some(vec![1, 2]));
        assert_eq!(residue.next_batch(), Some(vec![3]));
        assert_eq!(residue.next_batch(), None);
    }
}
