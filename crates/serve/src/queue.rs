//! A bounded MPMC queue with explicit overload and drain semantics.
//!
//! The serving layer's backpressure hinges on two properties: a full
//! queue rejects **immediately** (no blocking producers, so the acceptor
//! can answer `429` while overloaded) and a closed queue still hands out
//! everything already enqueued (so graceful shutdown drains in-flight
//! requests instead of dropping them).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why [`Bounded::try_push`] refused an item. The item is handed back so
/// the caller can respond on its connection.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue was closed for shutdown.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // A poisoned lock means a consumer panicked mid-pop; the queue
        // state itself is still coherent (push/pop are single statements),
        // so keep serving rather than wedging every thread.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item`, or returns it with the reason it was refused.
    /// Never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, waiting while the queue is empty and
    /// open. Returns `None` once the queue is closed **and** drained —
    /// the consumer's signal to exit: close only stops new work, it never
    /// drops queued work.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// queued items remain poppable, and all waiting consumers wake.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_order() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_items() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(PushError::Closed(8))));
        assert_eq!(q.pop(), Some(1), "close must not drop queued work");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed + drained must end the consumer");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_waits_for_a_push_and_wakes_at_close() {
        let q = Arc::new(Bounded::new(4));
        // The consumer signals just before it pops an empty queue, so
        // the push below almost always lands while it waits; a pop that
        // gave up on an empty open queue would return `None` here.
        let consumer = |q: &Arc<Bounded<u32>>| {
            let (ready, started) = std::sync::mpsc::channel();
            let q = Arc::clone(q);
            let handle = std::thread::spawn(move || {
                ready.send(()).unwrap();
                q.pop()
            });
            started.recv().unwrap();
            handle
        };
        let waiting = consumer(&q);
        q.try_push(7).unwrap();
        assert_eq!(waiting.join().unwrap(), Some(7));
        let waiting = consumer(&q);
        q.close();
        assert_eq!(waiting.join().unwrap(), None, "close wakes a waiting pop");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(_))));
    }
}
