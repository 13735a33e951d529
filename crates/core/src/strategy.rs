//! Honeypot behaviour strategies.
//!
//! Two orthogonal choices define a honeypot's behaviour (paper §III-B and
//! §IV):
//!
//! * the **content strategy** — what to do when a peer requests file parts:
//!   stay silent ([`ContentStrategy::NoContent`]) or send random bytes
//!   ([`ContentStrategy::RandomContent`]).  Sending the true file is
//!   rejected by the paper for bandwidth, storage, legal and ethical
//!   reasons;
//! * the **file strategy** — which files to advertise: a fixed list chosen
//!   by the manager ([`FileStrategy::Fixed`]), or the *greedy* procedure
//!   that starts from a few seeds and adopts every file seen in contacting
//!   peers' shared lists during an initial adoption window
//!   ([`FileStrategy::Greedy`]).

use edonkey_proto::FileId;
use netsim::SimTime;

/// How the honeypot answers REQUEST-PART queries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ContentStrategy {
    /// Ignore part requests entirely; the peer is clocked by its own
    /// timeout and detects the dead source quickly.
    NoContent,
    /// Answer with random bytes; the peer only detects the fake when a full
    /// 9.28 MB part fails its hash check — slower and less certain.
    RandomContent,
}

impl ContentStrategy {
    /// Paper-style label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ContentStrategy::NoContent => "no content",
            ContentStrategy::RandomContent => "random content",
        }
    }
}

/// One file a honeypot advertises.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdvertisedFile {
    pub id: FileId,
    pub name: String,
    pub size: u64,
}

impl AdvertisedFile {
    pub fn new(id: FileId, name: impl Into<String>, size: u64) -> Self {
        AdvertisedFile { id, name: name.into(), size }
    }
}

/// Which files the honeypot advertises.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileStrategy {
    /// The manager supplies the exact list (the paper's *distributed*
    /// measurement: the same four files on all 24 honeypots).
    Fixed(Vec<AdvertisedFile>),
    /// Start with `seeds`; until `adopt_until`, every file appearing in a
    /// contacting peer's shared list is added to the advertised list (the
    /// paper's *greedy* measurement: one day of adoption, then freeze).
    Greedy {
        seeds: Vec<AdvertisedFile>,
        adopt_until: SimTime,
        /// Safety cap on the advertised list size.
        max_files: usize,
    },
}

impl FileStrategy {
    /// The initial advertisement at launch time.
    pub fn initial_files(&self) -> &[AdvertisedFile] {
        match self {
            FileStrategy::Fixed(files) => files,
            FileStrategy::Greedy { seeds, .. } => seeds,
        }
    }

    /// Whether new files from peer shared lists should be adopted at `now`.
    pub fn adopting(&self, now: SimTime) -> bool {
        match self {
            FileStrategy::Fixed(_) => false,
            FileStrategy::Greedy { adopt_until, .. } => now < *adopt_until,
        }
    }

    /// The advertised-list size cap.
    pub fn max_files(&self) -> usize {
        match self {
            FileStrategy::Fixed(files) => files.len(),
            FileStrategy::Greedy { max_files, .. } => *max_files,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(tag: &[u8]) -> AdvertisedFile {
        AdvertisedFile::new(FileId::from_seed(tag), "f", 100)
    }

    #[test]
    fn fixed_never_adopts() {
        let s = FileStrategy::Fixed(vec![file(b"a")]);
        assert!(!s.adopting(SimTime::ZERO));
        assert_eq!(s.initial_files().len(), 1);
        assert_eq!(s.max_files(), 1);
    }

    #[test]
    fn greedy_adopts_only_during_window() {
        let s = FileStrategy::Greedy {
            seeds: vec![file(b"a"), file(b"b")],
            adopt_until: SimTime::from_days(1),
            max_files: 10_000,
        };
        assert!(s.adopting(SimTime::from_hours(12)));
        assert!(!s.adopting(SimTime::from_days(1)), "window is half-open");
        assert!(!s.adopting(SimTime::from_days(2)));
        assert_eq!(s.initial_files().len(), 2);
        assert_eq!(s.max_files(), 10_000);
    }

    #[test]
    fn labels() {
        assert_eq!(ContentStrategy::NoContent.label(), "no content");
        assert_eq!(ContentStrategy::RandomContent.label(), "random content");
    }
}
