//! Offline drop-in subset of the `crossbeam-queue` API.
//!
//! The build environment has no registry access, so this shim vendors the
//! one type the workspace needs: [`ArrayQueue`], a bounded multi-producer
//! multi-consumer queue based on Dmitry Vyukov's bounded MPMC algorithm
//! (the same design the real crate uses). Push and pop are lock-free: each
//! is a CAS on a position counter plus one release-store on the slot's
//! sequence stamp; a full or empty queue is detected without blocking.
//!
//! Slot protocol: slot `i` carries a sequence stamp. A stamp equal to the
//! producer's position means "empty, claim me by CAS-ing the position";
//! after writing the value the producer stores `pos + 1` ("full"). A
//! consumer at position `pos` expects stamp `pos + 1`, takes the value and
//! stores `pos + cap` — the stamp the slot must show for the producer that
//! will next wrap around to it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pad the head and tail counters to separate cache lines so producers and
/// consumers do not false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Slot<T> {
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free MPMC queue.
pub struct ArrayQueue<T> {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    buffer: Box<[Slot<T>]>,
    cap: usize,
}

// Values move through `UnsafeCell`s guarded by the slot stamps, so the
// queue is as thread-safe as the element type allows.
unsafe impl<T: Send> Send for ArrayQueue<T> {}
unsafe impl<T: Send> Sync for ArrayQueue<T> {}

impl<T> ArrayQueue<T> {
    /// A queue holding at most `cap` elements.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ArrayQueue capacity must be non-zero");
        let buffer: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        ArrayQueue {
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            buffer,
            cap,
        }
    }

    /// Maximum number of elements the queue holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Attempt to push, returning the value back if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[tail % self.cap];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == tail {
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot until the stamp is published.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.stamp.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if stamp.wrapping_add(self.cap) == tail.wrapping_add(1) {
                // One full lap behind: the slot still holds an unconsumed
                // value, i.e. the queue is full.
                return Err(value);
            } else {
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempt to pop; `None` when the queue is empty.
    pub fn pop(&self) -> Option<T> {
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[head % self.cap];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == head.wrapping_add(1) {
                match self.head.0.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.stamp
                            .store(head.wrapping_add(self.cap), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => head = current,
                }
            } else if stamp == head {
                // The producer for this slot has not finished (or the queue
                // is empty).
                return None;
            } else {
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of elements currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        loop {
            let tail = self.tail.0.load(Ordering::SeqCst);
            let head = self.head.0.load(Ordering::SeqCst);
            // Consistent only if tail did not move while we read head.
            if self.tail.0.load(Ordering::SeqCst) == tail {
                return tail.wrapping_sub(head).min(self.cap);
            }
        }
    }

    /// Whether the queue is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue is full (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() == self.cap
    }
}

impl<T> Drop for ArrayQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for ArrayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayQueue")
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let q = ArrayQueue::new(4);
        assert!(q.is_empty());
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wraps_many_laps() {
        let q = ArrayQueue::new(3);
        for i in 0..1000 {
            q.push(i).unwrap();
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drops_unconsumed_elements() {
        // The queue owns in-flight elements; dropping it must drop them
        // (the Rc strong count is the drop counter).
        let counted = std::rc::Rc::new(());
        struct Holder(#[allow(dead_code)] std::rc::Rc<()>);
        let q = ArrayQueue::new(4);
        q.push(Holder(counted.clone())).ok();
        q.push(Holder(counted.clone())).ok();
        drop(q);
        assert_eq!(std::rc::Rc::strong_count(&counted), 1);
    }

    #[test]
    fn mpmc_conserves_elements() {
        const PER_PRODUCER: u64 = 20_000;
        const PRODUCERS: u64 = 4;
        let q = ArrayQueue::new(64);
        let sum = AtomicUsize::new(0);
        let received = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum = &sum;
                let received = &received;
                s.spawn(move || loop {
                    match q.pop() {
                        Some(v) => {
                            sum.fetch_add(v as usize, Ordering::Relaxed);
                            if received.fetch_add(1, Ordering::Relaxed) + 1
                                == (PRODUCERS * PER_PRODUCER) as usize
                            {
                                break;
                            }
                        }
                        None => {
                            if received.load(Ordering::Relaxed)
                                >= (PRODUCERS * PER_PRODUCER) as usize
                            {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(received.load(Ordering::Relaxed) as u64, n);
        assert_eq!(sum.load(Ordering::Relaxed) as u64, n * (n - 1) / 2);
    }

    #[test]
    fn spsc_preserves_order_across_threads() {
        const N: u32 = 50_000;
        let q = ArrayQueue::new(16);
        std::thread::scope(|s| {
            let q = &q;
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    while let Err(back) = q.push(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(move || {
                let mut expect = 0;
                while expect < N {
                    if let Some(v) = q.pop() {
                        assert_eq!(v, expect);
                        expect += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
    }
}
