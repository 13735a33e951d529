//! The synthetic file catalog.
//!
//! The live eDonkey network carries hundreds of millions of files; the
//! measurement only ever observes (a) the files honeypots advertise and
//! (b) the shared-file lists of contacting peers.  The catalog models that
//! universe: every file has a stable [`edonkey_proto::FileId`], a name
//! generated from keyword pools, a size drawn from a type-dependent mixture
//! (calibrated so that the *average* size of observed distinct files is a
//! few hundred MB, as implied by Table I: 9 TB / 28,007 files ≈ 320 MB), and
//! a popularity weight (heavy-tailed, so the best advertised file attracts
//! thousands of peers and the worst a handful — Figs. 11–12).

use edonkey_proto::FileId;
use netsim::dist::log_normal;
use netsim::{Rng, Zipf};

/// Broad content classes with distinct size and naming profiles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FileClass {
    Video,
    Audio,
    Archive,
    Document,
}

impl FileClass {
    /// File-name extension for the class.
    pub fn extension(&self) -> &'static str {
        match self {
            FileClass::Video => "avi",
            FileClass::Audio => "mp3",
            FileClass::Archive => "iso",
            FileClass::Document => "pdf",
        }
    }
}

/// One catalog entry, as [`Catalog::file`] reads it: everything but the
/// name, which [`CatalogDraws::name_into`] renders on demand.
#[derive(Clone, Copy, Debug)]
pub struct CatalogFile {
    pub id: FileId,
    pub size: u64,
    pub class: FileClass,
    /// Relative popularity weight (not normalised).
    pub popularity: f64,
}

/// Catalog generation parameters.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Number of files in the universe.
    pub n_files: usize,
    /// Zipf exponent of the rank-based component of popularity.
    pub zipf_exponent: f64,
    /// σ of the per-file log-normal popularity jitter.  The product of the
    /// Zipf rank term and this jitter yields the wide per-file spread of
    /// Figs. 11–12 (13,373 peers for the best file, 2 for the worst).
    pub popularity_sigma: f64,
    /// Class mix as (video, audio, archive, document) weights.
    pub class_weights: [f64; 4],
    /// Number of outlier "hit" files whose popularity is boosted — the
    /// extreme head of Fig. 12 (best file: 13,373 peers).
    pub hit_count: usize,
    /// Popularity multiplier applied to hits.
    pub hit_multiplier: f64,
    /// Fraction of near-dead files (shared by peers, wanted by almost
    /// nobody) — the extreme tail of Fig. 12 (worst file: 2 peers) and the
    /// reason Table I's distinct-file counts sit well below the universe
    /// size.
    pub dead_fraction: f64,
    /// Popularity multiplier applied to dead files.
    pub dead_multiplier: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            n_files: 50_000,
            zipf_exponent: 0.45,
            popularity_sigma: 1.1,
            class_weights: [0.40, 0.28, 0.10, 0.22],
            hit_count: 0,
            hit_multiplier: 1.0,
            dead_fraction: 0.0,
            dead_multiplier: 1.0,
        }
    }
}

/// The generated catalog: the draws plus each rank's id.  A file costs
/// 44 bytes (16 of draws, 16 of id, 12 of running sum and guide); its name
/// is rendered from the draws whenever something reads it.  Everything
/// the draws answer, [`CatalogDraws`]'s methods answer here too.
pub struct Catalog {
    draws: CatalogDraws,
    /// `ids[rank]`: the MD4 of `catalog/{rank}/{name}`.
    ids: Vec<FileId>,
}

/// One file's draws: everything generation decides about it except its
/// name and id, which are derived from these and the rank.
struct FileDraw {
    popularity: f64,
    /// Below 3 GiB: [`Catalog::sample_size`] clamps every class there.
    size: u32,
    class: FileClass,
    /// Indices into [`ADJECTIVES`], [`NOUNS`] and [`SOURCES`].
    words: [u8; 3],
}

const _: () = assert!(std::mem::size_of::<FileDraw>() == 16);

/// A catalog's draw pass alone: class, size, name words and popularity of
/// every rank, drawn from the generator stream exactly as
/// [`Catalog::generate`] draws them, but with no id hashed.  What a
/// scenario builder needs to pick files and normalise rates;
/// [`CatalogDraws::hash_ids`] completes it into the [`Catalog`].
pub struct CatalogDraws {
    files: Vec<FileDraw>,
    /// Cumulative popularity (for weighted sampling over the whole
    /// catalog).
    cumulative: Cumulative,
}

/// Running sums of a weight column plus a guide table, so that a weighted
/// draw reads a few cache lines instead of binary-searching all of `sums`.
///
/// With `n` weights summing to `total`, the guide has `n + 1` buckets:
/// `guide[b]` is the first index whose running sum exceeds `b · total / n`.
/// A draw `x` in bucket `b` can only resolve inside
/// `sums[guide[b]..=guide[b + 1]]`, which holds one entry on average.
struct Cumulative {
    /// `sums[i]` is the weight of entries `0..=i`.
    sums: Vec<f64>,
    guide: Vec<u32>,
    /// `n / total`: maps a draw to its bucket.
    scale: f64,
}

impl Cumulative {
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let sums: Vec<f64> = weights
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        let n = sums.len();
        let total = *sums.last().expect("non-empty");
        let step = total / n as f64;
        let mut guide = Vec::with_capacity(n + 1);
        let mut i = 0;
        for b in 0..n {
            let edge = b as f64 * step;
            while i < n && sums[i] <= edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        // The top edge is the total itself, which no running sum exceeds
        // (`n · step` may round below it).
        guide.push(n as u32);
        Cumulative { sums, guide, scale: n as f64 / total }
    }

    fn total(&self) -> f64 {
        *self.sums.last().expect("non-empty")
    }

    /// The first index whose running sum exceeds `x` (`n` when none does):
    /// exactly `sums.partition_point(|&c| c <= x)`.  The guide narrows the
    /// search; the two boundary reads prove the answer, and a bucket that
    /// float rounding got wrong falls back to the full search.
    fn find(&self, x: f64) -> usize {
        let (lo, hi) = self.bucket(x);
        self.resolve(x, lo, hi)
    }

    /// The guide's bounds `lo..hi` on [`Cumulative::find`]'s answer for `x`.
    fn bucket(&self, x: f64) -> (usize, usize) {
        let b = ((x * self.scale) as usize).min(self.sums.len() - 1);
        (self.guide[b] as usize, self.guide[b + 1] as usize)
    }

    /// [`Cumulative::find`] for `x` within the guide's bounds `lo..hi`.
    fn resolve(&self, x: f64, lo: usize, hi: usize) -> usize {
        let n = self.sums.len();
        let a = lo + self.sums[lo..hi].partition_point(|&c| c <= x);
        if (a == 0 || self.sums[a - 1] <= x) && (a == n || self.sums[a] > x) {
            a
        } else {
            self.sums.partition_point(|&c| c <= x)
        }
    }

    /// Draws one index weighted by the weights.
    fn sample(&self, rng: &mut Rng) -> u32 {
        let x = rng.f64() * self.total();
        self.find(x).min(self.sums.len() - 1) as u32
    }

    /// Fills `out` with `k` distinct indices weighted by the weights
    /// (rejection over [`Cumulative::sample`], falling back to sequential
    /// fill for large `k`).
    ///
    /// The draws are made in batches of up to [`DRAW_BATCH`] and resolved
    /// side by side: every draw's guide bucket first, then every search,
    /// so the cache misses of different draws overlap instead of queueing
    /// behind each other.  Each batch then dedupes in draw order.  A batch
    /// never draws past the one-at-a-time loop: that loop runs until `k`
    /// distinct indices are found, and each draw adds at most one, so with
    /// `out.len()` found it still makes at least `k - out.len()` draws.
    /// The generator is therefore consumed exactly as one draw at a time
    /// would consume it, and `out` is the same.
    fn sample_distinct(&self, rng: &mut Rng, k: usize, out: &mut Vec<u32>) {
        let n = self.sums.len();
        let k = k.min(n);
        out.clear();
        let (total, max_tries) = (self.total(), k * 40);
        let mut tries = 0usize;
        let mut draws = [(0.0, 0, 0); DRAW_BATCH];
        loop {
            let batch = (k - out.len()).min(max_tries - tries).min(DRAW_BATCH);
            if batch == 0 {
                break;
            }
            tries += batch;
            for d in &mut draws[..batch] {
                let x = rng.f64() * total;
                let (lo, hi) = self.bucket(x);
                *d = (x, lo, hi);
            }
            for &(x, lo, hi) in &draws[..batch] {
                let idx = self.resolve(x, lo, hi).min(n - 1) as u32;
                if !out.contains(&idx) {
                    out.push(idx);
                }
            }
        }
        // Pathological case (tiny catalog, huge k): fill with unused
        // indices.
        if out.len() < k {
            for idx in 0..n as u32 {
                if out.len() == k {
                    break;
                }
                if !out.contains(&idx) {
                    out.push(idx);
                }
            }
        }
    }

    /// The one-at-a-time [`Cumulative::sample_distinct`]: the oracle the
    /// batched draws are pinned to.
    #[cfg(test)]
    fn sample_distinct_one_at_a_time(&self, rng: &mut Rng, k: usize, out: &mut Vec<u32>) {
        let n = self.sums.len();
        let k = k.min(n);
        out.clear();
        let mut tries = 0usize;
        while out.len() < k && tries < k * 40 {
            tries += 1;
            let idx = self.sample(rng);
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
        if out.len() < k {
            for idx in 0..n as u32 {
                if out.len() == k {
                    break;
                }
                if !out.contains(&idx) {
                    out.push(idx);
                }
            }
        }
    }
}

/// Most draws [`Cumulative::sample_distinct`] resolves side by side; the
/// batch lives on the stack.
const DRAW_BATCH: usize = 32;

const ADJECTIVES: &[&str] = &[
    "final",
    "new",
    "complete",
    "ultimate",
    "best",
    "full",
    "original",
    "extended",
    "special",
    "classic",
    "live",
    "limited",
    "deluxe",
    "rare",
    "official",
    "uncut",
    "remastered",
    "bonus",
    "golden",
    "platinum",
];

const NOUNS: &[&str] = &[
    "concert",
    "album",
    "movie",
    "episode",
    "season",
    "mix",
    "collection",
    "soundtrack",
    "documentary",
    "show",
    "session",
    "track",
    "record",
    "film",
    "series",
    "compilation",
    "anthology",
    "release",
    "edition",
    "set",
];

const SOURCES: &[&str] =
    &["dvdrip", "webrip", "cdrip", "vinyl", "radio", "tv", "studio", "bootleg", "promo", "retail"];

impl CatalogDraws {
    /// The draw pass: every random decision of [`Catalog::generate`], in
    /// its order — per rank class, size, the three name words, popularity
    /// jitter and the dead-tail coin, then the hits.
    pub fn generate(config: &CatalogConfig, rng: &mut Rng) -> Self {
        assert!(config.n_files > 0, "catalog cannot be empty");
        let zipf = Zipf::new(config.n_files, config.zipf_exponent);
        let class_cum: Vec<f64> = config
            .class_weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let class_total = *class_cum.last().expect("4 classes");

        let mut files = Vec::with_capacity(config.n_files);
        for rank in 0..config.n_files {
            let x = rng.f64() * class_total;
            let class = match class_cum.iter().position(|&c| x < c).unwrap_or(3) {
                0 => FileClass::Video,
                1 => FileClass::Audio,
                2 => FileClass::Archive,
                _ => FileClass::Document,
            };
            let size = Catalog::sample_size(rng, class);
            let words = Catalog::sample_words(rng);
            // Rank-based head plus log-normal jitter: a mid-rank file can
            // still be a sleeper hit, and tail files can be near-dead.
            let jitter = log_normal(rng, 0.0, config.popularity_sigma);
            let mut popularity = zipf.probability(rank) * jitter;
            if rng.chance(config.dead_fraction) {
                popularity *= config.dead_multiplier;
            }
            files.push(FileDraw { size, popularity, class, words });
        }
        // Promote a few randomly chosen files to outlier hits.
        if config.hit_count > 0 {
            for idx in rng.sample_indices(config.n_files, config.hit_count.min(config.n_files)) {
                files[idx].popularity *= config.hit_multiplier;
            }
        }
        let cumulative = Cumulative::new(files.iter().map(|f| f.popularity));
        CatalogDraws { files, cumulative }
    }

    /// The naming pass: hashes each rank's id.  Draws nothing.
    ///
    /// It runs on [`netsim::par::par_map`] workers, each naming a
    /// contiguous share of the ranks into one reused name and seed buffer,
    /// so it allocates nothing per file and the result is the same for any
    /// worker count.
    pub fn hash_ids(self) -> Catalog {
        let named = netsim::par::par_map(netsim::par::shares(self.len()), |share| {
            let (mut name, mut seed) = (String::new(), Vec::new());
            share
                .map(|rank| {
                    self.name_into(rank as u32, &mut name);
                    FileId::from_seed(Catalog::id_seed(&mut seed, rank, &name))
                })
                .collect::<Vec<FileId>>()
        });
        let mut ids = Vec::with_capacity(self.len());
        for share in named {
            ids.extend(share);
        }
        Catalog { draws: self, ids }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Content class of a file.
    pub fn class(&self, idx: u32) -> FileClass {
        self.files[idx as usize].class
    }

    /// Popularity weight of a file.
    pub fn popularity(&self, idx: u32) -> f64 {
        self.files[idx as usize].popularity
    }

    /// Writes a file's name into `out`, replacing what it held; a buffer
    /// that already has the room is not reallocated.
    pub fn name_into(&self, idx: u32, out: &mut String) {
        let d = &self.files[idx as usize];
        Catalog::render_name_into(d.words, d.class, idx as usize, out);
    }

    /// A file's name, in a string of exactly its length.
    pub fn name(&self, idx: u32) -> String {
        let mut name = String::new();
        self.name_into(idx, &mut name);
        name
    }

    /// Draws one file index weighted by popularity.
    pub fn sample_by_popularity(&self, rng: &mut Rng) -> u32 {
        self.cumulative.sample(rng)
    }

    /// Fills `out` with `k` distinct indices weighted by popularity
    /// (rejection over [`CatalogDraws::sample_by_popularity`], falling back
    /// to sequential fill for large `k`).
    pub fn sample_distinct_by_popularity(&self, rng: &mut Rng, k: usize, out: &mut Vec<u32>) {
        self.cumulative.sample_distinct(rng, k, out);
    }

    /// Total popularity mass of a set of files (used by the arrival process
    /// to scale peer rates with the advertised set).
    pub fn popularity_sum(&self, idxs: impl Iterator<Item = u32>) -> f64 {
        idxs.map(|i| self.files[i as usize].popularity).sum()
    }
}

impl Catalog {
    /// Generates the catalog deterministically from `rng`: the draw pass,
    /// then the naming pass.
    pub fn generate(config: &CatalogConfig, rng: &mut Rng) -> Self {
        CatalogDraws::generate(config, rng).hash_ids()
    }

    fn sample_size(rng: &mut Rng, class: FileClass) -> u32 {
        // Log-normal sizes per class; parameters chosen so the catalog-wide
        // mean lands near the ~330 MB/file implied by Table I.
        // Sizes are capped below 4 GB: the classic eDonkey wire protocol
        // carries 32-bit file offsets, so larger files did not circulate.
        let (mu, sigma, min, max): (f64, f64, u32, u32) = match class {
            // ~700 MB typical CD-image rip, up to a few GB.
            FileClass::Video => (20.3, 0.55, 50 << 20, 3_u32 << 30),
            // ~5 MB song.
            FileClass::Audio => (15.4, 0.6, 1 << 20, 200 << 20),
            // ~700 MB ISO.
            FileClass::Archive => (20.4, 0.7, 10 << 20, 3_u32 << 30),
            // ~2 MB document.
            FileClass::Document => (14.5, 1.0, 16 << 10, 100 << 20),
        };
        (log_normal(rng, mu, sigma) as u64).clamp(u64::from(min), u64::from(max)) as u32
    }

    /// The adjective, noun and source of a name, as indices into their
    /// pools (drawn as `rng.choose` over each pool would draw them).
    fn sample_words(rng: &mut Rng) -> [u8; 3] {
        [ADJECTIVES.len(), NOUNS.len(), SOURCES.len()].map(|n| rng.below(n as u64) as u8)
    }

    /// A name drawn and rendered in one go.
    #[cfg(test)]
    fn sample_name(rng: &mut Rng, class: FileClass, rank: usize) -> String {
        let mut name = String::new();
        Self::render_name_into(Self::sample_words(rng), class, rank, &mut name);
        name
    }

    /// `{adj}.{noun}.{rank:05}.{src}.{ext}`, written into `out` (cleared
    /// first, and grown to exactly the name's length if it is shorter).
    fn render_name_into(words: [u8; 3], class: FileClass, rank: usize, out: &mut String) {
        let [adj, noun, src] = words.map(usize::from);
        // The rank suffix keeps names unique-ish, standing in for the
        // artist/title tokens of real shared files.
        let mut digits = [0; 20];
        let rank = decimal(&mut digits, rank, 5);
        let parts = [ADJECTIVES[adj], NOUNS[noun], rank, SOURCES[src], class.extension()];
        let len = parts.iter().map(|p| p.len()).sum::<usize>() + parts.len() - 1;
        out.clear();
        out.reserve_exact(len);
        for (i, part) in parts.into_iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(part);
        }
    }

    /// Writes the id seed `catalog/{rank}/{name}` into `buf`.
    fn id_seed<'a>(buf: &'a mut Vec<u8>, rank: usize, name: &str) -> &'a [u8] {
        let mut digits = [0; 20];
        buf.clear();
        buf.extend_from_slice(b"catalog/");
        buf.extend_from_slice(decimal(&mut digits, rank, 1).as_bytes());
        buf.push(b'/');
        buf.extend_from_slice(name.as_bytes());
        buf
    }

    /// Access a file by catalog index.
    pub fn file(&self, idx: u32) -> CatalogFile {
        let d = &self.draws.files[idx as usize];
        CatalogFile {
            id: self.ids[idx as usize],
            size: u64::from(d.size),
            class: d.class,
            popularity: d.popularity,
        }
    }
}

impl std::ops::Deref for Catalog {
    type Target = CatalogDraws;

    fn deref(&self) -> &CatalogDraws {
        &self.draws
    }
}

/// The decimal rendering of `v`, zero-padded to at least `min_width`
/// digits, written into `buf`.
fn decimal(buf: &mut [u8; 20], v: usize, min_width: usize) -> &str {
    let mut i = buf.len();
    let mut v = v;
    while v > 0 || buf.len() - i < min_width.max(1) {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Catalog").field("files", &self.len()).finish()
    }
}

impl std::fmt::Debug for CatalogDraws {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("CatalogDraws").field("files", &self.files.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> Catalog {
        let mut rng = Rng::seed_from(1);
        Catalog::generate(&CatalogConfig { n_files: n, ..Default::default() }, &mut rng)
    }

    #[test]
    fn deterministic_generation() {
        let a = catalog(100);
        let b = catalog(100);
        for i in 0..100 {
            assert_eq!(a.file(i).id, b.file(i).id);
            assert_eq!(a.file(i).size, b.file(i).size);
        }
    }

    #[test]
    fn ids_are_distinct() {
        let c = catalog(1_000);
        let ids: std::collections::HashSet<_> = (0..1_000).map(|i| c.file(i).id).collect();
        assert_eq!(ids.len(), 1_000);
    }

    #[test]
    fn mean_size_in_table1_ballpark() {
        let c = catalog(20_000);
        let mean = (0..20_000).map(|i| c.file(i).size as f64).sum::<f64>() / 20_000.0;
        // Table I implies ≈320–340 MB per distinct file; accept a broad
        // band since observation re-weights towards popular files.
        assert!(
            (100e6..800e6).contains(&mean),
            "catalog mean size {mean:.0} B outside plausible band"
        );
    }

    #[test]
    fn popularity_sampling_prefers_popular_files() {
        let c = catalog(1_000);
        let mut rng = Rng::seed_from(2);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            counts[c.sample_by_popularity(&mut rng) as usize] += 1;
        }
        // The most popular file must be sampled far more often than the
        // median file.
        let best = (0..1_000)
            .max_by(|&a, &b| {
                c.file(a as u32).popularity.partial_cmp(&c.file(b as u32).popularity).unwrap()
            })
            .unwrap();
        let mut sorted: Vec<u32> = counts.clone();
        sorted.sort_unstable();
        assert!(counts[best] > sorted[500] * 5, "head not heavy enough");
    }

    #[test]
    fn sample_distinct_yields_distinct() {
        let c = catalog(200);
        let mut rng = Rng::seed_from(3);
        let mut s = Vec::new();
        c.sample_distinct_by_popularity(&mut rng, 50, &mut s);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn sample_distinct_handles_k_near_n() {
        let c = catalog(20);
        let mut rng = Rng::seed_from(4);
        let mut s = Vec::new();
        c.sample_distinct_by_popularity(&mut rng, 20, &mut s);
        assert_eq!(s.len(), 20);
        c.sample_distinct_by_popularity(&mut rng, 50, &mut s);
        assert_eq!(s.len(), 20, "clamped to catalog size");
    }

    #[test]
    fn popularity_sum_adds_up() {
        let c = catalog(100);
        let total = c.popularity_sum(0..100u32);
        let head = c.popularity_sum(0..50u32);
        let tail = c.popularity_sum(50..100u32);
        assert!((head + tail - total).abs() < 1e-12);
        assert!(total > 0.0);
    }

    #[test]
    fn names_carry_class_extension() {
        let c = catalog(500);
        for i in 0..500 {
            let name = c.name(i);
            assert!(name.ends_with(c.class(i).extension()), "{name}");
        }
    }

    #[test]
    fn hits_and_dead_tail_shape_the_distribution() {
        let mut rng = Rng::seed_from(9);
        let config = CatalogConfig {
            n_files: 5_000,
            hit_count: 3,
            hit_multiplier: 50.0,
            dead_fraction: 0.3,
            dead_multiplier: 0.001,
            ..Default::default()
        };
        let c = Catalog::generate(&config, &mut rng);
        let mut pops: Vec<f64> = (0..5_000).map(|i| c.file(i).popularity).collect();
        pops.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        // The boosted head towers over the median; the dead tail is far
        // below it.
        assert!(pops[0] / pops[2_500] > 50.0, "head/median {}", pops[0] / pops[2_500]);
        assert!(pops[2_500] / pops[4_999] > 100.0, "median/tail {}", pops[2_500] / pops[4_999]);
        // Sampling must remain functional with the extreme weights.
        let mut s = Vec::new();
        c.sample_distinct_by_popularity(&mut rng, 100, &mut s);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn sizes_respect_class_bounds() {
        let c = catalog(2_000);
        for i in 0..2_000 {
            let f = c.file(i);
            match f.class {
                FileClass::Audio => assert!(f.size <= 200 << 20),
                FileClass::Video => assert!(f.size >= 50 << 20),
                _ => {}
            }
        }
    }

    /// The search the guide table replaces: the differential oracle.
    fn oracle(sums: &[f64], x: f64) -> usize {
        sums.partition_point(|&c| c <= x)
    }

    /// Every bucket edge (and its float neighbours), 0, the total, the
    /// largest float below the total and random draws.
    fn assert_matches_oracle(c: &Cumulative, rng: &mut Rng, case: &str) {
        let n = c.sums.len();
        let total = c.total();
        let step = total / n as f64;
        let mut probes = vec![0.0, total, total.next_down()];
        for b in 0..=n {
            let edge = b as f64 * step;
            probes.extend([edge.next_down().max(0.0), edge, edge.next_up()]);
        }
        probes.extend(c.sums.iter().flat_map(|&s| [s.next_down().max(0.0), s]));
        probes.extend((0..n).map(|_| rng.f64() * total));
        for x in probes {
            assert_eq!(c.find(x), oracle(&c.sums, x), "{case}: x = {x:e} (total {total:e})");
        }
    }

    #[test]
    fn guide_draw_matches_partition_point() {
        for seed in 0..80u64 {
            let mut rng = Rng::seed_from(seed);
            let n = match seed {
                0..=4 => seed as usize + 1,
                _ => rng.range(1, 5_001) as usize,
            };
            // Weights spanning the dead (×1e-3) to hit (×1e2) multipliers of
            // a catalog, with runs of zero weight (repeated sums) and tiny
            // weights that a large running sum absorbs.
            let mut weights = Vec::with_capacity(n);
            while weights.len() < n {
                let run = 1 + rng.below(8) as usize;
                let w = match rng.below(4) {
                    0 => 0.0,
                    _ => 10f64.powf(rng.f64() * 9.0 - 6.0),
                };
                weights.extend(std::iter::repeat_n(w, run.min(n - weights.len())));
            }
            if weights.iter().all(|&w| w == 0.0) {
                weights[rng.below(n as u64) as usize] = 1.0;
            }
            let mut c = Cumulative::new(weights.into_iter());
            assert_matches_oracle(&c, &mut rng, &format!("seed {seed}, n {n}"));
            // A guide pointing a bucket too high, or nowhere, must still
            // resolve exactly: the boundary reads catch it.
            c.guide.remove(0);
            c.guide.push(n as u32);
            assert_matches_oracle(&c, &mut rng, &format!("seed {seed}, n {n}, guide shifted"));
            c.guide.fill(0);
            assert_matches_oracle(&c, &mut rng, &format!("seed {seed}, n {n}, guide zeroed"));
        }
    }

    /// The greedy scenario's catalog (400 k files, hits and a dead tail):
    /// a million draws resolve exactly as the full binary search does.
    #[test]
    fn greedy_catalog_draws_match_partition_point() {
        let config = CatalogConfig {
            n_files: 400_000,
            zipf_exponent: 0.10,
            popularity_sigma: 0.48,
            class_weights: [0.32, 0.36, 0.09, 0.23],
            hit_count: 5,
            hit_multiplier: 12.0,
            dead_fraction: 0.35,
            dead_multiplier: 0.005,
        };
        let mut rng = Rng::seed_from(0xED0_2009 ^ 0x6EED).substream("catalog");
        let c = Catalog::generate(&config, &mut rng);
        let total = c.cumulative.total();
        for i in 0..1_000_000 {
            let x = rng.f64() * total;
            assert_eq!(c.cumulative.find(x), oracle(&c.cumulative.sums, x), "draw {i}: x = {x:e}");
        }
    }

    /// The batched draws return what one draw at a time returns and leave
    /// the generator where it leaves it, for every `k` up to past two
    /// batches, on catalogs small enough to need the sequential fill and
    /// on the greedy scenario's size.
    #[test]
    fn batched_distinct_draws_match_one_at_a_time() {
        for n_files in [1, 5, 1_000, 400_000] {
            let config = CatalogConfig {
                n_files,
                hit_count: 3,
                hit_multiplier: 12.0,
                dead_fraction: 0.35,
                dead_multiplier: 0.005,
                ..Default::default()
            };
            let draws = CatalogDraws::generate(&config, &mut Rng::seed_from(n_files as u64));
            let c = &draws.cumulative;
            let (mut batched, mut single) = (Vec::new(), Vec::new());
            for k in 0..=70 {
                let seed = 1_000 * n_files as u64 + k as u64;
                let (mut a, mut b) = (Rng::seed_from(seed), Rng::seed_from(seed));
                c.sample_distinct(&mut a, k, &mut batched);
                c.sample_distinct_one_at_a_time(&mut b, k, &mut single);
                assert_eq!(batched, single, "{n_files} files, k = {k}");
                assert_eq!(batched.len(), k.min(n_files), "{n_files} files, k = {k}");
                assert_eq!(a.next_u64(), b.next_u64(), "{n_files} files, k = {k}: generator state");
            }
        }
    }

    /// The catalog is the same whatever number of workers names it.
    #[test]
    fn naming_is_independent_of_the_worker_count() {
        let config = CatalogConfig { n_files: 5_003, ..Default::default() };
        let files = |workers| {
            netsim::par::with_workers(workers, || {
                let c = Catalog::generate(&config, &mut Rng::seed_from(11));
                format!(
                    "{:?}",
                    (0..c.len() as u32).map(|i| (c.file(i), c.name(i))).collect::<Vec<_>>()
                )
            })
        };
        let one = files(1);
        for workers in [2, 8] {
            assert!(files(workers) == one, "{workers} workers name the catalog differently");
        }
    }

    /// Names and id seeds across the zero-padding boundary, as the
    /// `format!` rendering wrote them (`{rank:05}` in the name, plain
    /// `{rank}` in `catalog/{rank}/{name}`).
    #[test]
    fn names_and_id_seeds_keep_their_bytes() {
        let pins = [
            (0, FileClass::Video, "deluxe.series.00000.webrip.avi", "catalog/0/"),
            (9, FileClass::Audio, "final.mix.00009.webrip.mp3", "catalog/9/"),
            (
                99_999,
                FileClass::Archive,
                "platinum.compilation.99999.bootleg.iso",
                "catalog/99999/",
            ),
            (100_000, FileClass::Document, "ultimate.track.100000.vinyl.pdf", "catalog/100000/"),
            (399_999, FileClass::Video, "remastered.season.399999.cdrip.avi", "catalog/399999/"),
        ];
        let mut seed = Vec::new();
        for (rank, class, want, prefix) in pins {
            let name = Catalog::sample_name(&mut Rng::seed_from(rank as u64), class, rank);
            assert_eq!(name, want);
            assert_eq!(name.len(), name.capacity(), "allocated at its exact size");
            let id_seed = Catalog::id_seed(&mut seed, rank, &name);
            assert_eq!(id_seed, [prefix.as_bytes(), want.as_bytes()].concat());
        }
    }

    /// A catalog's memory as a count: its columns hold 44 bytes per file
    /// (16 of draws, 16 of id, 8 of running sum and 4 of guide) plus the
    /// guide's top edge, and rendering a name into a buffer with room for
    /// it allocates nothing.
    #[test]
    fn a_catalog_file_costs_44_bytes_and_a_rendered_name_none() {
        use std::mem::size_of;
        for n in [1, 7, 5_003] {
            let c = catalog(n);
            let bytes = c.draws.files.capacity() * size_of::<FileDraw>()
                + c.ids.capacity() * size_of::<FileId>()
                + c.cumulative.sums.capacity() * size_of::<f64>()
                + c.cumulative.guide.capacity() * size_of::<u32>();
            assert!(bytes <= 44 * n + 4 * (n + 1), "{n} files: {bytes} bytes");
            let mut name = String::with_capacity(64);
            let buffer = name.as_ptr();
            for i in 0..n as u32 {
                c.name_into(i, &mut name);
                assert_eq!(name, c.name(i));
                assert_eq!((name.as_ptr(), name.capacity()), (buffer, 64), "file {i} reallocated");
            }
        }
    }
}
