//! Every lint that replaced a per-file ibcm-lint rule fires here at a
//! known line; `tests/clippy_fixture.rs` asserts the exact set.

/// Determinism: the root clippy.toml's disallowed methods and types.
pub mod determinism {
    use std::collections::HashMap;
    use std::collections::HashSet;

    pub fn wall_clock() -> std::time::Instant {
        std::time::Instant::now()
    }

    pub fn system_clock() -> std::time::SystemTime {
        std::time::SystemTime::now()
    }

    pub fn fused32(a: f32) -> f32 {
        a.mul_add(a, a)
    }

    pub fn fused64(a: f64) -> f64 {
        a.mul_add(a, a)
    }

    pub fn tallies(m: &HashMap<u8, u8>, s: &HashSet<u8>) -> usize {
        m.len() + s.len()
    }
}

/// A panic-free file: the same seven-lint deny as the workspace's.
pub mod hot {
    #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

    pub fn unwraps(x: Option<u8>) -> u8 {
        x.unwrap()
    }

    pub fn expects(x: Option<u8>) -> u8 {
        x.expect("present")
    }

    pub fn panics() {
        panic!("boom")
    }

    pub fn unreachables() {
        unreachable!("never")
    }

    pub fn todos() {
        todo!()
    }

    pub fn unimplementeds() {
        unimplemented!()
    }

    pub fn indexes(v: &[u8], i: usize) -> u8 {
        v[i]
    }

    #[expect(clippy::indexing_slicing, reason = "a justified site stays quiet")]
    pub fn justified(v: &[u8]) -> u8 {
        v[0]
    }

    #[expect(clippy::unwrap_used, reason = "nothing here unwraps, so the expectation is unfulfilled")]
    pub fn stale() {}

    #[cfg(test)]
    mod tests {
        #[test]
        fn panics_are_allowed_in_tests() {
            let v = [1u8];
            assert_eq!(v[0], v.first().copied().unwrap());
        }
    }
}

/// Unsafe hygiene: `// SAFETY:` on every block, `# Safety` on every
/// `unsafe fn`, private ones included.
pub mod unsafe_hygiene {
    pub fn undocumented_block(v: &[f32]) -> f32 {
        unsafe { *v.get_unchecked(0) }
    }

    pub fn documented_block(v: &[f32]) -> f32 {
        assert!(!v.is_empty());
        // SAFETY: v is non-empty, checked above.
        unsafe { private_read(v.as_ptr()) }
    }

    unsafe fn private_read(p: *const f32) -> f32 {
        // SAFETY: the caller passes a valid pointer.
        unsafe { *p }
    }
}
