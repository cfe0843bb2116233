//! C-family fixture: a blocking call inside a designated lock-free
//! data-path fn, a Release store no Acquire-class load ever observes, and
//! an Acquire load with no publisher. The same blocking call in `push`
//! (not on the data-path list) stays legal.

impl FixtureQueue {
    pub fn len(&self) -> bool {
        let guard = self.inner.lock();
        drop(guard);
        self.tail.store(1, Ordering::Release);
        self.head.load(Ordering::Acquire) == 0
    }

    pub fn push(&self) {
        let _ = self.inner.lock();
    }
}
