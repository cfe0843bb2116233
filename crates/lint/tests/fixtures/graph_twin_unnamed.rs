//! T-family fixture: an entry file that names neither type with a `weigh`
//! method, so its `.weigh()` call keeps both candidates.

pub fn weigh_any<S: ibcm_nn::scales::Weigh>(s: &S) -> u8 {
    s.weigh()
}
