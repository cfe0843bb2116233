//! T-family fixture: an entry file that names `Tally`, so its `.weigh()`
//! call resolves to `Tally::weigh` alone.

use ibcm_nn::scales::Tally;

pub fn weigh_tally(t: &Tally) -> u8 {
    t.weigh()
}
