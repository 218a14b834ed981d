//! The deterministic adversarial corpus.
//!
//! Each case is an operand pair `(A, B)` addressable by a stable name plus
//! a seed, so any failure reproduces from one CLI line
//! (`tsg-check sweep --case NAME --seed N`). The cases target the places
//! the tiled pipeline can silently diverge from row-row SpGEMM: the 16×16
//! tile boundaries, the 192-nonzero sparse/dense accumulator threshold, the
//! step-1 tile prediction (which may allocate tiles whose element-level
//! intersection is empty), duplicate and cancelling inputs, and the skewed
//! generator families the paper evaluates on.

use tsg_gen::suite::GenSpec;
use tsg_matrix::{Coo, Csr, TILE_DIM};

/// One corpus entry: stable name plus what it stresses.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    /// Stable case name, accepted by `tsg-check sweep --case`.
    pub name: &'static str,
    /// What the case is designed to break.
    pub summary: &'static str,
}

/// Every corpus case, in sweep order.
pub const CASES: &[CaseSpec] = &[
    CaseSpec {
        name: "empty",
        summary: "both operands all-zero: no tiles anywhere in the pipeline",
    },
    CaseSpec {
        name: "identity",
        summary: "I*I: strictly diagonal tiles, one nonzero each",
    },
    CaseSpec {
        name: "permutation",
        summary: "P*Q for random permutations: product is again a permutation",
    },
    CaseSpec {
        name: "dense-tile-row",
        summary: "one fully dense tile row in A against a scattered B",
    },
    CaseSpec {
        name: "tnnz-192",
        summary: "single output tile with exactly tnnz=192 nonzeros (sparse accumulator)",
    },
    CaseSpec {
        name: "tnnz-193",
        summary: "single output tile with 193 nonzeros (first dense-accumulator tile)",
    },
    CaseSpec {
        name: "dense-tile-256",
        summary: "single fully dense 256-nonzero output tile",
    },
    CaseSpec {
        name: "tile-column-b",
        summary: "every B nonzero in one tile column: maximal step-1 fan-in",
    },
    CaseSpec {
        name: "rank1-blowup",
        summary: "dense column times dense row: fully dense rank-1 product",
    },
    CaseSpec {
        name: "coo-dup",
        summary: "operands built from duplicate COO pushes, including exact cancellations",
    },
    CaseSpec {
        name: "phantom-tile",
        summary: "index-matched tile pair whose element intersection is empty: no tile",
    },
    CaseSpec {
        name: "cancellation",
        summary: "product values that cancel to exact numeric zero",
    },
    CaseSpec {
        name: "fem",
        summary: "FEM block structure (paper's regular family)",
    },
    CaseSpec {
        name: "rmat-skew",
        summary: "skewed R-MAT power-law graph (paper's irregular family)",
    },
    CaseSpec {
        name: "scatter-rect",
        summary: "rectangular chain A(60x90)*B(90x40)",
    },
    CaseSpec {
        name: "skew-row",
        summary: "one row of A concentrating >50% of all intermediate products",
    },
    CaseSpec {
        name: "grid-empty",
        summary: "near-empty grid product: many tile rows, almost no products each",
    },
    CaseSpec {
        name: "dense-blocks",
        summary: "block-diagonal dense 16x16 tiles: compression ~16x, zero variance",
    },
    CaseSpec {
        name: "banded-dense",
        summary: "banded product: >100 dense-accumulator tiles of ~4 pairs, ~2-entry B rows",
    },
];

/// Names of all corpus cases, in sweep order.
pub fn names() -> impl Iterator<Item = &'static str> {
    CASES.iter().map(|c| c.name)
}

/// Tiny deterministic generator (xorshift64*) so corpus values depend only
/// on `(name, seed)` — no global RNG state, no platform variance.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate small seeds.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value in `{0.25, 0.5, …, 8.0}` — exactly representable, nonzero.
    fn val(&mut self) -> f64 {
        0.25 * (1 + self.below(32)) as f64
    }
}

fn permutation(n: usize, rng: &mut Rng) -> Csr<f64> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut coo = Coo::new(n, n);
    for (r, &c) in perm.iter().enumerate() {
        coo.push(r as u32, c, 1.0);
    }
    coo.to_csr()
}

/// One 16×16 tile (as a whole matrix) holding exactly `nnz` entries, filled
/// in a fixed interleaved order so thresholds hit mid-tile, not row-aligned.
fn single_tile(nnz: usize, rng: &mut Rng) -> Csr<f64> {
    assert!(nnz <= TILE_DIM * TILE_DIM);
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    let mut placed = 0;
    // First pass: positions whose linear index is not a multiple of 4
    // (exactly 192 of 256), then backfill the skipped ones.
    for pass in 0..2 {
        for lin in 0..TILE_DIM * TILE_DIM {
            let skip = lin % 4 == 0;
            if (pass == 0 && skip) || (pass == 1 && !skip) || placed == nnz {
                continue;
            }
            coo.push((lin / TILE_DIM) as u32, (lin % TILE_DIM) as u32, rng.val());
            placed += 1;
        }
    }
    coo.to_csr()
}

fn scatter(nrows: usize, ncols: usize, per_row: usize, rng: &mut Rng) -> Csr<f64> {
    let mut coo = Coo::new(nrows, ncols);
    for r in 0..nrows {
        for _ in 0..per_row {
            coo.push(r as u32, rng.below(ncols as u64) as u32, rng.val());
        }
    }
    coo.to_csr()
}

/// Builds the named case. `None` for unknown names. Same `(name, seed)`
/// always yields the same operand pair.
pub fn build(name: &str, seed: u64) -> Option<(Csr<f64>, Csr<f64>)> {
    let mut rng = Rng::new(seed.wrapping_add(0xC0FF_EE00));
    let t = TILE_DIM as u32;
    Some(match name {
        "empty" => {
            let z = Coo::new(48, 48).to_csr();
            (z.clone(), z)
        }
        "identity" => {
            let i = Csr::<f64>::identity(64);
            (i.clone(), i)
        }
        "permutation" => (permutation(64, &mut rng), permutation(64, &mut rng)),
        "dense-tile-row" => {
            let mut coo = Coo::new(64, 64);
            for r in 0..TILE_DIM as u32 {
                for c in 0..64u32 {
                    coo.push(r, c, rng.val());
                }
            }
            // Sparse remainder so the dense tile row meets real partners.
            for r in TILE_DIM as u32..64 {
                coo.push(r, r, rng.val());
                coo.push(r, rng.below(64) as u32, rng.val());
            }
            (coo.to_csr(), scatter(64, 64, 4, &mut rng))
        }
        // I · B keeps B's single tile intact, so the output tile holds
        // exactly the target nonzero count on the paper's 192 threshold.
        "tnnz-192" => (Csr::identity(TILE_DIM), single_tile(192, &mut rng)),
        "tnnz-193" => (Csr::identity(TILE_DIM), single_tile(193, &mut rng)),
        "dense-tile-256" => (Csr::identity(TILE_DIM), single_tile(256, &mut rng)),
        "tile-column-b" => {
            let a = scatter(96, 96, 6, &mut rng);
            let mut coo = Coo::new(96, 96);
            for r in 0..96u32 {
                coo.push(r, rng.below(u64::from(t)) as u32, rng.val());
                coo.push(r, rng.below(u64::from(t)) as u32, rng.val());
            }
            (a, coo.to_csr())
        }
        "rank1-blowup" => {
            let mut col = Coo::new(64, 64);
            let mut row = Coo::new(64, 64);
            for i in 0..64u32 {
                col.push(i, 0, rng.val());
                row.push(0, i, rng.val());
            }
            (col.to_csr(), row.to_csr())
        }
        "coo-dup" => {
            let dup = |rng: &mut Rng| {
                let mut coo = Coo::new(32, 32);
                for _ in 0..60 {
                    let (r, c) = (rng.below(32) as u32, rng.below(32) as u32);
                    let v = rng.val();
                    // The stored value is the *sum* of duplicate pushes.
                    coo.push(r, c, v * 0.5);
                    coo.push(r, c, v * 0.25);
                    coo.push(r, c, v * 0.25);
                }
                // A duplicate pair cancelling to exact zero: must vanish.
                let (r, c) = (rng.below(32) as u32, rng.below(32) as u32);
                let v = rng.val();
                coo.push(r, c, v);
                coo.push(r, c, -v);
                coo.to_csr()
            };
            (dup(&mut rng), dup(&mut rng))
        }
        "phantom-tile" => {
            // A's tile (0,1) covers columns {16}; B's tile (1,0) covers
            // rows {17}. The tile-level product predicts output tile (0,0),
            // but the element-level intersection 16 ∩ 17 is empty: the
            // pair is dead, so the exact step 1 allocates no tile for it
            // (the paper's step 1 keeps it with zero nonzeros).
            let mut a = Coo::new(32, 32);
            let mut b = Coo::new(32, 32);
            a.push(0, t, 1.0);
            b.push(t + 1, 0, 1.0);
            // Plus one honest product away from the phantom.
            a.push(20, 20, rng.val());
            b.push(20, 20, rng.val());
            (a.to_csr(), b.to_csr())
        }
        "cancellation" => {
            // C[0][0] = A[0][0]*B[0][0] + A[0][1]*B[1][0] = v - v = 0.
            let mut a = Coo::new(32, 32);
            let mut b = Coo::new(32, 32);
            for k in 0..8u32 {
                let r = k * 4;
                let v = rng.val();
                a.push(r, r, v);
                a.push(r, r + 1, v);
                b.push(r, r, 1.0);
                b.push(r + 1, r, -1.0);
                // A surviving entry in the same rows keeps shapes honest.
                b.push(r, r + 2, rng.val());
            }
            (a.to_csr(), b.to_csr())
        }
        "fem" => {
            let a = GenSpec::Fem {
                nodes: 60,
                block: 4,
                couplings: 3,
                spread: 6,
                seed,
            }
            .build();
            (a.clone(), a)
        }
        "rmat-skew" => {
            let a = GenSpec::Rmat {
                scale: 8,
                edges: 2200,
                mild: false,
                seed,
            }
            .build();
            (a.clone(), a)
        }
        "scatter-rect" => (
            tsg_gen::random::erdos_renyi(60, 90, 420, seed.wrapping_add(11)),
            tsg_gen::random::erdos_renyi(90, 40, 320, seed.wrapping_add(12)),
        ),
        "skew-row" => {
            // Row 0 of A hits 64 heavy B rows (32 nonzeros each): 2048
            // products from one row against ~511 from everything else, so a
            // single tile row carries ~80% of the work. A uniform sampler
            // that misses it under-predicts by 4–5×; the heavy-row rule in
            // `tilespgemm_core::sample` must catch it on every seed.
            let n = 512;
            let mut a = Coo::new(n, n);
            for c in 0..64u32 {
                a.push(0, c, rng.val());
            }
            for r in 1..n as u32 {
                a.push(r, 64 + rng.below(n as u64 - 64) as u32, rng.val());
            }
            let mut b = Coo::new(n, n);
            for r in 0..64u32 {
                for _ in 0..32 {
                    b.push(r, rng.below(n as u64) as u32, rng.val());
                }
            }
            for r in 64..n as u32 {
                b.push(r, rng.below(n as u64) as u32, rng.val());
            }
            (a.to_csr(), b.to_csr())
        }
        "grid-empty" => {
            // Grid-structured A (3D-stencil-like bands at ±1/±16/±256)
            // against a B that keeps only every 64th row: almost every
            // intermediate product vanishes, so the estimator sees many
            // tile rows whose true contribution is zero — an adversary for
            // samplers that assume work is roughly uniform and nonzero.
            let n = 2048i64;
            let mut a = Coo::new(n as usize, n as usize);
            for r in 0..n {
                for off in [0i64, -1, 1, -16, 16, -256, 256] {
                    let c = r + off;
                    if (0..n).contains(&c) {
                        a.push(r as u32, c as u32, rng.val());
                    }
                }
            }
            let mut b = Coo::new(n as usize, n as usize);
            for r in (0..n).step_by(64) {
                b.push(r as u32, rng.below(n as u64) as u32, rng.val());
            }
            (a.to_csr(), b.to_csr())
        }
        "dense-blocks" => {
            // Block-diagonal with fully dense 16×16 tiles: A·A compresses
            // exactly 16× (4096 products per block, 256 outputs) with zero
            // variance across tile rows — the sampled band must collapse
            // onto the truth instead of inflating it.
            let blocks = 16;
            let n = blocks * TILE_DIM;
            let mut a = Coo::new(n, n);
            for blk in 0..blocks as u32 {
                let base = blk * t;
                for r in 0..t {
                    for c in 0..t {
                        a.push(base + r, base + c, rng.val());
                    }
                }
            }
            let a = a.to_csr();
            (a.clone(), a)
        }
        "banded-dense" => {
            // The shape of a banded power or chain link at scale: most
            // output tiles hold more than tnnz = 192 entries, each built
            // from about 4 pairs whose B rows hold about 2 entries per A
            // nonzero — the dense kernel's sparsest-operand regime.
            let banded = |bandwidth, per_row, seed| {
                GenSpec::Banded {
                    n: 384,
                    bandwidth,
                    per_row,
                    seed,
                }
                .build()
            };
            (banded(40, 60, seed), banded(30, 8, seed.wrapping_add(1)))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_case_builds_and_is_deterministic() {
        for case in CASES {
            let (a1, b1) = build(case.name, 7).unwrap_or_else(|| panic!("{}", case.name));
            let (a2, b2) = build(case.name, 7).unwrap();
            assert_eq!(a1.content_hash(), a2.content_hash(), "{}", case.name);
            assert_eq!(b1.content_hash(), b2.content_hash(), "{}", case.name);
            assert_eq!(a1.ncols, b1.nrows, "{} shapes chain", case.name);
            a1.validate().unwrap();
            b1.validate().unwrap();
        }
        assert!(build("no-such-case", 0).is_none());
    }

    #[test]
    fn threshold_cases_store_the_exact_tile_counts() {
        for (name, nnz) in [
            ("tnnz-192", 192),
            ("tnnz-193", 193),
            ("dense-tile-256", 256),
        ] {
            let (_, b) = build(name, 3).unwrap();
            assert_eq!(b.nnz(), nnz, "{name}");
            assert_eq!((b.nrows, b.ncols), (TILE_DIM, TILE_DIM));
        }
    }

    /// `banded-dense` keeps the shape it is named for: at least 100 output
    /// tiles above tnnz = 192, built from about 4 live pairs each, whose B
    /// rows hold about 2 entries per A nonzero.
    #[test]
    fn banded_dense_sends_many_sparse_row_tiles_to_the_dense_kernel() {
        use tilespgemm_core::{multiply, step2, Config};
        use tsg_matrix::TileMatrix;
        use tsg_runtime::MemTracker;
        for seed in [0, 1] {
            let (a, b) = build("banded-dense", seed).unwrap();
            let (a, b) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
            let c = multiply(&a, &b, &Config::default(), &MemTracker::new())
                .unwrap()
                .c;
            let lists = step2::row_pass_lists(&a, &b, &c.tile_ptr, &c.tile_colidx);
            let dense: Vec<usize> = (0..c.tile_count())
                .filter(|&t| c.tile_nnz_of(t) > 192)
                .collect();
            let pairs: usize = dense.iter().map(|&t| lists[t].len()).sum();
            let (mut a_nnz, mut b_entries) = (0usize, 0usize);
            for &(a_id, b_id) in dense.iter().flat_map(|&t| &lists[t]) {
                let b_masks = b.tile(b_id as usize).masks;
                for &k in a.tile(a_id as usize).col_idx {
                    a_nnz += 1;
                    b_entries += b_masks[k as usize].count_ones() as usize;
                }
            }
            let per_tile = pairs as f64 / dense.len() as f64;
            let per_nonzero = b_entries as f64 / a_nnz as f64;
            assert!(
                dense.len() >= 100,
                "seed {seed}: {} dense tiles",
                dense.len()
            );
            assert!(
                (3.0..=6.0).contains(&per_tile),
                "seed {seed}: {per_tile:.2} pairs per dense tile"
            );
            assert!(
                (1.5..=2.5).contains(&per_nonzero),
                "seed {seed}: {per_nonzero:.2} B-row entries per A nonzero"
            );
        }
    }

    #[test]
    fn seeds_change_the_content() {
        let (a1, _) = build("rmat-skew", 1).unwrap();
        let (a2, _) = build("rmat-skew", 2).unwrap();
        assert_ne!(a1.content_hash(), a2.content_hash());
    }
}
