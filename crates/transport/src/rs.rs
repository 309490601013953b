//! Systematic Reed–Solomon erasure coding over GF(256).
//!
//! Used by the proactive-FEC rekey transport (\[YLZL01\]): each FEC
//! block of `k` payload packets is extended with `m` parity packets;
//! a receiver can reconstruct the block from *any* `k` of the `k + m`
//! shards (MDS property).
//!
//! The code is built from a Cauchy matrix, which guarantees that every
//! square submatrix is invertible, so decoding is a dense Gaussian
//! elimination over GF(256) of a `k × k` system.

use crate::gf256;
use std::error::Error;
use std::fmt;

/// Errors from Reed–Solomon operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RsError {
    /// Fewer than `k` shards survive — reconstruction impossible.
    NotEnoughShards {
        /// Shards required (`k`).
        needed: usize,
        /// Shards available.
        have: usize,
    },
    /// Shard lengths differ or parameters are inconsistent.
    Malformed,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughShards { needed, have } => {
                write!(f, "need {needed} shards to reconstruct, have {have}")
            }
            RsError::Malformed => write!(f, "malformed shard set"),
        }
    }
}

impl Error for RsError {}

/// A systematic Reed–Solomon erasure code with `k` data shards and up
/// to `m` parity shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `m × k` Cauchy parity matrix: parity_i = Σ_j cauchy[i][j]·data_j.
    parity_rows: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Creates a code with `k` data and `m` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k`, `0 <= m`, and `k + m <= 255`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1, "need at least one data shard");
        assert!(k + m <= 255, "k + m must be at most 255");
        // Cauchy matrix c[i][j] = 1 / (x_i + y_j) with x_i = k + i,
        // y_j = j: all sums nonzero and distinct in GF(256).
        let parity_rows = (0..m)
            .map(|i| {
                (0..k)
                    .map(|j| gf256::inv((k + i) as u8 ^ j as u8))
                    .collect()
            })
            .collect();
        ReedSolomon { k, m, parity_rows }
    }

    /// Parity shard count `m`.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Computes parity shard `index` (0-based) for the given data
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `index >= m`, `data.len() != k`, or shard lengths
    /// differ.
    pub fn parity_shard(&self, data: &[Vec<u8>], index: usize) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        assert!(index < self.m, "parity index out of range");
        let len = data[0].len();
        let mut out = vec![0u8; len];
        for (j, shard) in data.iter().enumerate() {
            assert_eq!(shard.len(), len, "shard lengths differ");
            gf256::mul_acc(&mut out, shard, self.parity_rows[index][j]);
        }
        out
    }

    /// Computes all `m` parity shards.
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let _span = rekey_obs::span!("transport.rs.encode");
        (0..self.m).map(|i| self.parity_shard(data, i)).collect()
    }

    /// Reconstructs the `k` data shards from any `k` surviving shards.
    ///
    /// `shards[idx]` holds the shard with global index `idx` (data
    /// shards are `0..k`, parity shards `k..k+m`); missing shards are
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`RsError::NotEnoughShards`] if fewer than `k` shards are
    /// present; [`RsError::Malformed`] if lengths are inconsistent.
    pub fn reconstruct(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>, RsError> {
        let _span = rekey_obs::span!("transport.rs.reconstruct");
        if shards.len() != self.k + self.m {
            return Err(RsError::Malformed);
        }
        let available: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        if available.len() < self.k {
            return Err(RsError::NotEnoughShards {
                needed: self.k,
                have: available.len(),
            });
        }
        let len = shards[available[0]]
            .as_ref()
            .expect("listed available")
            .len();
        for &i in &available {
            if shards[i].as_ref().expect("listed available").len() != len {
                return Err(RsError::Malformed);
            }
        }

        // Use the first k available shards. Build the k×k system:
        // row for shard idx expresses it as a combination of the data
        // shards (identity row for data shards, Cauchy row for parity).
        let used = &available[..self.k];
        let mut matrix: Vec<Vec<u8>> = used
            .iter()
            .map(|&idx| {
                if idx < self.k {
                    let mut row = vec![0u8; self.k];
                    row[idx] = 1;
                    row
                } else {
                    self.parity_rows[idx - self.k].clone()
                }
            })
            .collect();
        let mut rhs: Vec<Vec<u8>> = used
            .iter()
            .map(|&idx| shards[idx].as_ref().expect("listed available").clone())
            .collect();

        // Gaussian elimination over GF(256).
        for col in 0..self.k {
            // Find pivot.
            let pivot = (col..self.k)
                .find(|&r| matrix[r][col] != 0)
                .expect("Cauchy systems are always solvable");
            matrix.swap(col, pivot);
            rhs.swap(col, pivot);
            // Normalize pivot row.
            let inv_p = gf256::inv(matrix[col][col]);
            gf256::scale(&mut matrix[col][col..], inv_p);
            gf256::scale(&mut rhs[col], inv_p);
            // Eliminate the column everywhere else. Split borrows keep
            // the pivot row readable while other rows are updated, so
            // the elimination loop allocates nothing.
            let (m_before, m_rest) = matrix.split_at_mut(col);
            let (m_pivot, m_after) = m_rest.split_first_mut().expect("col < k");
            let (r_before, r_rest) = rhs.split_at_mut(col);
            let (r_pivot, r_after) = r_rest.split_first_mut().expect("col < k");
            let other_rows = m_before.iter_mut().chain(m_after.iter_mut());
            let other_rhs = r_before.iter_mut().chain(r_after.iter_mut());
            for (row, rhs_row) in other_rows.zip(other_rhs) {
                let factor = row[col];
                if factor == 0 {
                    continue;
                }
                gf256::mul_acc(&mut row[col..], &m_pivot[col..], factor);
                gf256::mul_acc(rhs_row, r_pivot, factor);
            }
        }
        Ok(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn roundtrip_no_erasures() {
        let mut rng = StdRng::seed_from_u64(1);
        let rs = ReedSolomon::new(4, 2);
        let data = random_data(&mut rng, 4, 64);
        let parity = rs.encode(&data);
        let shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        assert_eq!(rs.reconstruct(&shards).unwrap(), data);
    }

    #[test]
    fn recovers_from_data_erasures() {
        let mut rng = StdRng::seed_from_u64(2);
        let rs = ReedSolomon::new(6, 3);
        let data = random_data(&mut rng, 6, 100);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[0] = None;
        shards[3] = None;
        shards[5] = None;
        assert_eq!(rs.reconstruct(&shards).unwrap(), data);
    }

    #[test]
    fn recovers_from_mixed_erasures() {
        let mut rng = StdRng::seed_from_u64(3);
        let rs = ReedSolomon::new(8, 4);
        let data = random_data(&mut rng, 8, 37);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        // Drop 2 data + 2 parity = exactly m erasures.
        shards[1] = None;
        shards[6] = None;
        shards[9] = None;
        shards[11] = None;
        assert_eq!(rs.reconstruct(&shards).unwrap(), data);
    }

    #[test]
    fn fails_below_threshold() {
        let rs = ReedSolomon::new(4, 2);
        let shards: Vec<Option<Vec<u8>>> = vec![
            Some(vec![1, 2]),
            None,
            None,
            Some(vec![3, 4]),
            None,
            Some(vec![5, 6]),
        ];
        assert!(matches!(
            rs.reconstruct(&shards),
            Err(RsError::NotEnoughShards { needed: 4, have: 3 })
        ));
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        // Exhaustively verify the MDS property for a small code.
        let mut rng = StdRng::seed_from_u64(4);
        let (k, m) = (3usize, 3usize);
        let rs = ReedSolomon::new(k, m);
        let data = random_data(&mut rng, k, 16);
        let parity = rs.encode(&data);
        let all: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
        let n = k + m;
        // Every subset of size k.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
                    for &i in &[a, b, c] {
                        shards[i] = Some(all[i].clone());
                    }
                    assert_eq!(
                        rs.reconstruct(&shards).unwrap(),
                        data,
                        "subset {{{a},{b},{c}}}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let shards = vec![Some(vec![1, 2]), Some(vec![3]), None];
        assert_eq!(rs.reconstruct(&shards), Err(RsError::Malformed));
    }

    #[test]
    fn zero_parity_degenerates_to_identity() {
        let rs = ReedSolomon::new(3, 0);
        let data = vec![vec![1u8], vec![2], vec![3]];
        assert!(rs.encode(&data).is_empty());
        let shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
        assert_eq!(rs.reconstruct(&shards).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn oversized_code_rejected() {
        ReedSolomon::new(200, 100);
    }
}
