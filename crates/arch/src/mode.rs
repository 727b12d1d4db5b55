use std::fmt;

/// Operating mode of a dual-mode CIM array (Fig. 3).
///
/// In *memory* mode the array behaves as scratchpad (GIA/GIAb held high);
/// in *compute* mode the global lines carry input activations and the
/// array performs bit-serial MACs in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayMode {
    /// Standard read/write scratchpad behaviour.
    Memory,
    /// In-situ multiply-accumulate behaviour.
    Compute,
}

impl ArrayMode {
    /// The opposite mode.
    pub fn flipped(self) -> ArrayMode {
        match self {
            ArrayMode::Memory => ArrayMode::Compute,
            ArrayMode::Compute => ArrayMode::Memory,
        }
    }
}

impl fmt::Display for ArrayMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayMode::Memory => write!(f, "memory"),
            ArrayMode::Compute => write!(f, "compute"),
        }
    }
}

/// Identifier of a physical CIM array on the chip (dense index
/// `0..n_arrays`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_is_involution() {
        assert_eq!(ArrayMode::Memory.flipped(), ArrayMode::Compute);
        assert_eq!(ArrayMode::Compute.flipped().flipped(), ArrayMode::Compute);
    }

    #[test]
    fn display() {
        assert_eq!(ArrayMode::Memory.to_string(), "memory");
        assert_eq!(ArrayId(5).to_string(), "a5");
        assert_eq!(ArrayId(5).index(), 5);
    }
}
