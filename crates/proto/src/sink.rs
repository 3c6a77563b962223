//! Reusable output scratch buffers for allocation-free event dispatch.
//!
//! Every state machine in the hot path (edge switch, controller, cluster
//! plane) emits *effects* — messages to send, timers to arm. Returning a
//! fresh `Vec` of effects per handled event put one heap allocation (and
//! usually a few reallocations) on the per-packet path. An [`OutputSink`]
//! inverts the ownership: the **driver** owns one scratch buffer per
//! output type, hands `&mut OutputSink<T>` to each handler, and drains it
//! in place after the call — so in steady state the buffer's capacity is
//! allocated once and reused for the run's lifetime.
//!
//! Ownership rules (see `DESIGN.md` §7, "Output sinks and message
//! layout"):
//!
//! * the sink is **empty when a handler is entered** — the driver drains
//!   it fully after every dispatch, so handlers may assume anything they
//!   observe in the sink is their own output;
//! * handlers only **append** (push); they never read, reorder, or remove
//!   entries — output order is exactly push order, which is what keeps
//!   the simulation's `(time, insertion seq)` determinism contract intact
//!   across the sink refactor;
//! * drivers drain with [`OutputSink::take_buf`]/[`OutputSink::put_back`]
//!   (a `mem::take` swap), which lets the drain loop borrow the rest of
//!   the driver mutably while iterating, and returns the allocation to
//!   the sink afterwards.

/// A reusable, append-only scratch buffer for handler outputs.
///
/// # Example
///
/// ```
/// use lazyctrl_proto::OutputSink;
///
/// let mut sink: OutputSink<u32> = OutputSink::new();
/// sink.push(7);
/// sink.push(9);
/// let mut buf = sink.take_buf();
/// assert_eq!(buf, vec![7, 9]);
/// for v in buf.drain(..) {
///     let _ = v; // dispatch the effect
/// }
/// sink.put_back(buf); // capacity survives for the next event
/// assert!(sink.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct OutputSink<T> {
    buf: Vec<T>,
}

impl<T> Default for OutputSink<T> {
    fn default() -> Self {
        OutputSink { buf: Vec::new() }
    }
}

impl<T> OutputSink<T> {
    /// Creates an empty sink (no allocation until the first push).
    pub fn new() -> Self {
        OutputSink::default()
    }

    /// Creates a sink with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        OutputSink {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one output.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.buf.push(item);
    }

    /// Number of buffered outputs.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The buffered outputs, in push order.
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Drops all buffered outputs, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Takes the backing buffer out of the sink (leaving it empty and
    /// unallocated), so a driver can iterate the outputs while mutably
    /// borrowing itself. Pair with [`OutputSink::put_back`].
    #[inline]
    pub fn take_buf(&mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }

    /// Returns a buffer taken via [`OutputSink::take_buf`], clearing any
    /// leftovers; the larger capacity wins, so the scratch only grows.
    ///
    /// Nothing may push into the sink between `take_buf` and `put_back`
    /// (the drain loop owns the outputs); the debug assertion makes a
    /// future violation loud instead of silently dropping outputs.
    #[inline]
    pub fn put_back(&mut self, mut buf: Vec<T>) {
        debug_assert!(
            self.buf.is_empty(),
            "sink was pushed into between take_buf and put_back"
        );
        buf.clear();
        if buf.capacity() > self.buf.capacity() {
            self.buf = buf;
        }
    }

    /// Drains the buffered outputs in push order (capacity kept).
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.buf.drain(..)
    }
}

impl<T> Extend<T> for OutputSink<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_is_drain_order() {
        let mut sink = OutputSink::new();
        for i in 0..10 {
            sink.push(i);
        }
        let drained: Vec<i32> = sink.drain().collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert!(sink.is_empty());
    }

    #[test]
    fn take_put_back_keeps_capacity() {
        let mut sink = OutputSink::with_capacity(64);
        sink.push(1u8);
        let buf = sink.take_buf();
        assert_eq!(buf.len(), 1);
        assert!(sink.is_empty());
        sink.put_back(buf);
        assert!(sink.is_empty());
        assert!(sink.buf.capacity() >= 64);
    }

    #[test]
    fn put_back_prefers_larger_capacity() {
        let mut sink: OutputSink<u64> = OutputSink::new();
        sink.put_back(Vec::with_capacity(128));
        assert!(sink.buf.capacity() >= 128);
        // A smaller returned buffer must not shrink the scratch.
        sink.put_back(Vec::with_capacity(2));
        assert!(sink.buf.capacity() >= 128);
    }
}
