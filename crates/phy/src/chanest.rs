//! Per-frame channel state as one matrix per subcarrier — the input of
//! the stand-alone [`crate::zf::zf_task`]. The engine keeps its CSI in
//! the frame planes instead, one matrix per ZF group: the LS estimate
//! `H = y / p` is fused into the pilot FFT task's store, which writes
//! each estimate a group reads straight into that group's matrix
//! (`agora-core`, `Kernels::fft_batch_task`).

use agora_math::CMat;

/// Per-frame channel state: `H[sc]` is the `M x K` channel matrix at each
/// active subcarrier.
#[derive(Debug, Clone)]
pub struct CsiBuffer {
    /// Row-major `M x K` per subcarrier.
    h: Vec<CMat>,
}

impl CsiBuffer {
    /// Creates a zeroed CSI buffer for `num_subcarriers` subcarriers.
    pub fn new(num_antennas: usize, num_users: usize, num_subcarriers: usize) -> Self {
        Self { h: vec![CMat::zeros(num_antennas, num_users); num_subcarriers] }
    }

    /// Channel matrix at one subcarrier.
    pub fn at(&self, sc: usize) -> &CMat {
        &self.h[sc]
    }

    /// Mutable channel matrix at one subcarrier.
    pub fn at_mut(&mut self, sc: usize) -> &mut CMat {
        &mut self.h[sc]
    }

    /// Number of subcarriers covered.
    pub fn num_subcarriers(&self) -> usize {
        self.h.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csi_buffer_shapes() {
        let csi = CsiBuffer::new(8, 4, 32);
        assert_eq!(csi.num_subcarriers(), 32);
        assert_eq!(csi.at(0).shape(), (8, 4));
    }
}
