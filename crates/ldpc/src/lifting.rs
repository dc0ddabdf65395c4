//! 5G NR lifting sizes.
//!
//! A QC-LDPC code is defined by a small *base graph* whose entries are
//! cyclic shifts of a `Z x Z` identity block. 3GPP TS 38.212 defines 51
//! valid lifting sizes `Z = a * 2^j` with `a` in {2,3,5,7,9,11,13,15} and
//! small `j`, capped at 384. We reproduce the size table exactly (cell
//! configurations are validated against it); decode time scaling
//! linearly with `Z` (Figure 12a) follows from the lifting mechanics.

/// The maximum lifting size defined by 5G NR.
pub const MAX_Z: usize = 384;

/// The eight base factors `a`.
const SET_FACTORS: [usize; 8] = [2, 3, 5, 7, 9, 11, 13, 15];

/// True if `z` is a valid 5G NR lifting size.
pub fn is_valid_lifting(z: usize) -> bool {
    if !(2..=MAX_Z).contains(&z) {
        return false;
    }
    // Strip powers of two; what remains must be an odd base factor, or 1
    // for a pure power of two (`a = 2`).
    let odd = z >> z.trailing_zeros();
    odd == 1 || SET_FACTORS.contains(&odd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_51_sizes() {
        let sizes: Vec<usize> = (0..=2 * MAX_Z).filter(|&z| is_valid_lifting(z)).collect();
        assert_eq!(sizes.len(), 51);
        assert_eq!(*sizes.first().unwrap(), 2);
        assert_eq!(*sizes.last().unwrap(), 384);
    }

    #[test]
    fn paper_sizes_are_valid() {
        // Z = 104 (13 * 8) and Z = 384 (3 * 128) are the paper's two
        // evaluation points (Figure 12a).
        assert!(is_valid_lifting(104));
        assert!(is_valid_lifting(384));
    }

    #[test]
    fn invalid_sizes_rejected() {
        assert!(!is_valid_lifting(0));
        assert!(!is_valid_lifting(1));
        assert!(!is_valid_lifting(17)); // odd, not a base factor
        assert!(!is_valid_lifting(385));
        assert!(!is_valid_lifting(202)); // 2 * 101
    }

    #[test]
    fn powers_of_two_valid_from_2() {
        for z in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            assert!(is_valid_lifting(z), "{z} should be valid");
        }
    }
}
