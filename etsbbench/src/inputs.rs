//! Seeded input generation. Everything a workload reads — CSV tables,
//! the detector file, request lines — is written here, from the seed,
//! before any set-up is timed; the program only ever sees these files.

use etsb_core::config::{ModelKind, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::persist::save_detector;
use etsb_core::EncodedDataset;
use etsb_nn::{Optimizer, Rmsprop};
use etsb_table::{AttrIndex, CharIndex};
use etsb_tensor::init::seeded_rng;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Characters the generated values are drawn from: the ASCII characters
/// of the paper's datasets as `etsb-datasets` generates them (see
/// [`LENGTH_QUANTILES`]) without the comma, 72 of them; a generated
/// dataset has 38 to 82 distinct characters. The detector's value
/// dictionary covers exactly this alphabet. The first 26 are the
/// lowercase letters every value starts with.
pub const ALPHABET: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 %&'()-./:";

/// The character the detector learns to flag.
const ERROR_MARK: char = '%';

/// Attributes of the streamed tables and of the served requests.
pub const COLUMNS: [&str; 4] = ["code", "name", "address", "note"];

/// Cell length in characters of the paper's datasets at the quantiles
/// `(k + 0.5) / 64`: the equal-weight mixture of the dirty tables of
/// Beers, Flights, Hospital, Movies and Rayyan as `etsb-datasets`
/// generates them at paper size (seed 42). Tax is left out: its
/// generator is super-linear in the row count. Pinned by the self-test
/// `length_quantiles_are_measured`.
pub const LENGTH_QUANTILES: [usize; 64] = [
    0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7, 7, 7,
    7, 7, 8, 9, 9, 9, 9, 9, 9, 10, 10, 10, 11, 12, 13, 14, 14, 15, 15, 16, 19, 20, 21, 23, 24, 26,
    28, 30, 31, 37, 56, 66,
];

/// SplitMix64: a small, fully specified generator, so the inputs for a
/// seed never change with a dependency upgrade.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Value length at quantile `u` in `[0, 1)` of the paper's datasets
/// ([`LENGTH_QUANTILES`]). [`value`] raises it where a value needs more
/// characters to carry its unique tag.
pub fn value_len(u: f64) -> usize {
    LENGTH_QUANTILES[((u * 64.0) as usize).min(63)]
}

/// The `i`-th quantile of a low-discrepancy sequence per attribute. Value
/// lengths follow it rather than the seed, so every seed gives a table
/// with the same lengths (the same work) and only the characters differ.
pub fn length_quantile(i: usize, attr: usize) -> f64 {
    const STEPS: [f64; 4] = [
        0.618_033_988_7,
        0.414_213_562_4,
        0.732_050_807_6,
        0.236_067_977_5,
    ];
    ((i + 1) as f64 * STEPS[attr % STEPS.len()]).fract()
}

/// A value of `len` characters, or of as many as its tag needs: a random
/// body of at least one character that starts with a letter and ends in
/// `tag` (hex), so distinct tags give distinct values.
pub fn value(rng: &mut Rng, len: usize, tag: Option<u64>) -> String {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let tag = tag.map(|t| format!("{t:x}")).unwrap_or_default();
    let body = len.saturating_sub(tag.len()).max(1);
    let mut out = String::with_capacity(body + tag.len());
    out.push(alphabet[rng.range(0, 25)]);
    for _ in 1..body {
        out.push(alphabet[rng.range(0, alphabet.len() - 1)]);
    }
    out.push_str(&tag);
    out
}

fn csv_header() -> String {
    COLUMNS.join(",") + "\n"
}

/// Write a table whose every value is unique within its column.
pub fn write_distinct_csv(path: &Path, rows: usize, seed: u64) -> std::io::Result<u64> {
    let mut rng = Rng::new(seed, 1);
    write_csv(path, rows, |r, attr, line| {
        let len = value_len(length_quantile(r, attr));
        line.push_str(&value(&mut rng, len, Some(r as u64)));
    })
}

/// Write a table whose values are drawn from a pool of `pool` values per
/// column, so every value repeats many times.
pub fn write_repeat_csv(path: &Path, rows: usize, pool: usize, seed: u64) -> std::io::Result<u64> {
    let mut rng = Rng::new(seed, 2);
    let pools: Vec<Vec<String>> = (0..COLUMNS.len())
        .map(|attr| {
            (0..pool)
                .map(|i| {
                    let len = value_len(length_quantile(i, attr));
                    value(&mut rng, len, Some(i as u64))
                })
                .collect()
        })
        .collect();
    write_csv(path, rows, |_, attr, line| {
        line.push_str(&pools[attr][rng.range(0, pool - 1)]);
    })
}

fn write_csv(
    path: &Path,
    rows: usize,
    mut cell: impl FnMut(usize, usize, &mut String),
) -> std::io::Result<u64> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(csv_header().as_bytes())?;
    let mut line = String::new();
    for r in 0..rows {
        line.clear();
        for attr in 0..COLUMNS.len() {
            if attr > 0 {
                line.push(',');
            }
            cell(r, attr, &mut line);
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// The detector the streaming and serving workloads load: ETSB-RNN at
/// the paper's dimensions over [`ALPHABET`] and [`COLUMNS`], trained for
/// a few steps on marked values (errors carry an [`ERROR_MARK`]) so its
/// probabilities move away from the 0.5 decision threshold, as a trained
/// detector's do. Returns the `save_detector` bytes.
pub fn detector_bytes(seed: u64) -> Vec<u8> {
    const TRAIN_CELLS: usize = 96;
    const TRAIN_STEPS: usize = 12;
    let mut data = EncodedDataset::empty_with_dicts(
        CharIndex::from_alphabet(ALPHABET.chars()),
        AttrIndex::from_names(COLUMNS.iter().map(|c| c.to_string()).collect()),
    );
    let mut rng = Rng::new(seed, 3);
    for i in 0..TRAIN_CELLS {
        let attr = i % COLUMNS.len();
        let len = rng.range(4, 12);
        let mut v = value(&mut rng, len, None);
        let error = i % 3 == 0;
        if error {
            let at = rng.range(0, v.len() - 1);
            v.replace_range(at..at + 1, &ERROR_MARK.to_string());
        } else {
            v = v.replace(ERROR_MARK, "x");
        }
        data.sequences.push(data.char_index.encode(&v));
        data.attr_ids.push(attr);
        data.length_norms.push(v.len() as f32 / 12.0);
        data.labels.push(error);
    }
    data.n_tuples = TRAIN_CELLS / COLUMNS.len();
    let cfg = TrainConfig::default();
    let mut model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(seed));
    let cells: Vec<usize> = (0..TRAIN_CELLS).collect();
    let mut opt = Rmsprop::new(5e-3);
    let mut grads = model.grad_buffer();
    for _ in 0..TRAIN_STEPS {
        grads.zero();
        model.train_batch(&data, &cells, &mut grads);
        opt.step(&mut model.params_mut(), &grads);
    }
    save_detector(&model, ModelKind::Etsb, &cfg, &data)
}

/// Write `n` request lines for the serve workload. Each request carries one
/// cell per attribute; about half the cells come from a small pool per
/// attribute (cache hits once seen) and half are unique (never seen, so
/// every batch runs the model).
pub fn write_requests(path: &Path, n: usize, seed: u64) -> std::io::Result<()> {
    const POOL: usize = 64;
    let mut rng = Rng::new(seed, 4);
    let pools: Vec<Vec<String>> = (0..COLUMNS.len())
        .map(|attr| {
            (0..POOL)
                .map(|i| {
                    let len = value_len(length_quantile(i, attr));
                    value(&mut rng, len, Some(i as u64))
                })
                .collect()
        })
        .collect();
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for k in 0..n {
        line.clear();
        let _ = write!(line, "{{\"id\":\"r{k}\",\"cells\":[");
        for (attr, name) in COLUMNS.iter().enumerate() {
            let v = if rng.chance(0.5) {
                pools[attr][rng.range(0, POOL - 1)].clone()
            } else {
                let len = value_len(length_quantile(k, attr));
                // Tags above the pool's keep unique values off the pool.
                value(&mut rng, len, Some((POOL + k) as u64))
            };
            if attr > 0 {
                line.push(',');
            }
            let _ = write!(
                line,
                "{{\"tuple_id\":{k},\"attribute\":\"{name}\",\"value\":\"{v}\"}}"
            );
        }
        line.push_str("]}\n");
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values() {
        let gen = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..50)
                .map(|i| {
                    let len = value_len(length_quantile(i, i % 4));
                    value(&mut rng, len, Some(i as u64))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        assert!(gen(3)
            .iter()
            .all(|v| !v.contains(',') && v.chars().count() <= 128));
    }

    /// The length table and the alphabet are the generated paper
    /// datasets', not chosen: regenerate them and measure again.
    #[test]
    fn length_quantiles_are_measured() {
        use etsb_datasets::{Dataset, GenConfig};
        let mut cdfs: Vec<Vec<f64>> = Vec::new();
        let mut chars = std::collections::BTreeSet::new();
        for dataset in [
            Dataset::Beers,
            Dataset::Flights,
            Dataset::Hospital,
            Dataset::Movies,
            Dataset::Rayyan,
        ] {
            let pair = dataset
                .generate(&GenConfig {
                    scale: 1.0,
                    seed: 42,
                })
                .unwrap();
            let mut counts = [0usize; 129];
            for row in pair.dirty.iter_rows() {
                for v in row {
                    counts[v.chars().count().min(128)] += 1;
                    chars.extend(v.chars().filter(char::is_ascii));
                }
            }
            let n = counts.iter().sum::<usize>() as f64;
            let mut below = 0;
            cdfs.push(
                counts
                    .iter()
                    .map(|&k| {
                        below += k;
                        below as f64 / n
                    })
                    .collect(),
            );
        }
        let quantile = |p: f64| {
            (0..=128)
                .find(|&len| cdfs.iter().map(|c| c[len]).sum::<f64>() / cdfs.len() as f64 >= p)
                .unwrap()
        };
        let measured: Vec<usize> = (0..64).map(|k| quantile((k as f64 + 0.5) / 64.0)).collect();
        assert_eq!(measured, LENGTH_QUANTILES);
        chars.remove(&',');
        let alphabet: std::collections::BTreeSet<char> = ALPHABET.chars().collect();
        assert_eq!(alphabet, chars);
        assert_eq!(ALPHABET.chars().count(), 72);
        assert!(ALPHABET[..26].chars().all(|c| c.is_ascii_lowercase()));
    }
}
