//! Fixture: the determinism (D) rule fires on every intrinsic outside
//! ibcm-nn's reviewed allow-list, FMA included. Scanned by
//! `lint_fixtures.rs` as `crates/lm/src/model.rs` (a src file outside
//! ibcm-nn) and as `crates/nn/src/matrix.rs`; never compiled. Wall clocks,
//! scalar FMA and std hash maps are clippy's (`tests/clippy_fixture.rs`).

fn fused_kernel(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_fmadd_ps(a, b, c)
}

fn foreign_intrinsic(a: __m256, b: __m256) -> __m256 {
    _mm256_add_ps(a, b)
}
