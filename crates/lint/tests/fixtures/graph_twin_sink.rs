//! T-family fixture, sink half of the method-resolution case: two types in
//! a dependency crate share the method name `weigh`, and both bodies panic.

pub struct Tally {
    pub counts: Vec<u8>,
}

pub struct Census {
    pub counts: Vec<u8>,
}

impl Tally {
    pub fn weigh(&self) -> u8 {
        self.counts[0]
    }
}

impl Census {
    pub fn weigh(&self) -> u8 {
        self.counts[1]
    }
}
