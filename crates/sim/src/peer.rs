//! Genuine-peer state, struct-of-arrays.
//!
//! A simulated peer used to be a heap object with four private `Vec`s;
//! at million-peer scale the allocator traffic and pointer-chasing
//! dominated the hot loop.  [`PeerTable`] stores the population as
//! parallel columns instead — one `Vec` per field, indexed by the peer
//! number the events already carry — and flattens the per-peer lists
//! (wanted files, shared files, providers, contact order) into shared
//! append-only arenas addressed by offset ranges.  A peer costs ~100
//! bytes of column space plus its arena slices; nothing is allocated per
//! peer after [`PeerTable::push`].
//!
//! The sampling decisions live in [`crate::behaviour`] and message
//! construction in [`crate::world`]; only peers that end up contacting at least one
//! honeypot are materialised — the rest of the eDonkey population is
//! invisible to the measurement and therefore never allocated.

use netsim::SimTime;

use crate::identity::PeerIdentity;

/// Maximum honeypots per scenario (peer-side blacklists and shared-list
/// bookkeeping are u64 bitmasks).
pub const MAX_HONEYPOTS: usize = 64;

/// Phase of a peer↔honeypot session (paper Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SessionState {
    /// About to send HELLO.
    #[default]
    Greet,
    /// Got HELLO-ANSWER; about to send START-UPLOAD.
    Upload,
    /// Upload accepted; requesting parts.
    Request,
}

/// One in-flight session with a honeypot.
#[derive(Clone, Copy, Debug, Default)]
pub struct Session {
    /// Honeypot index.
    pub hp: u8,
    /// Catalog index of the file the peer asks for.
    pub file: u32,
    pub state: SessionState,
    /// Remaining REQUEST-PARTS budget (random-content pacing).
    pub budget: u8,
    /// Consecutive unanswered REQUEST-PARTS so far.
    pub timeouts: u8,
    /// The session proceeds past START-UPLOAD into part requests.
    pub do_request: bool,
    /// Connection token (unique per session).
    pub conn: u64,
    /// Next block triple to request.
    pub block_cursor: u32,
    /// Whether any SENDING-PART arrived in this session.
    pub delivered: bool,
}

/// How a finished session ended, as seen by the peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionOutcome {
    /// Stopped after HELLO by design.
    HelloOnly,
    /// Ended without a verdict (patience ran out).
    Inconclusive,
    /// The peer concluded the source is fake/dead and blacklists it.
    Detected,
    /// The honeypot never answered HELLO (offline source).
    NoAnswer,
}

/// Per-peer boolean traits, packed into one byte per peer.
mod flag {
    /// Probe-only client: greets sources but never requests uploads.
    pub const PROBE_ONLY: u8 = 1 << 0;
    /// Whether the client exposes its shared list when asked.
    pub const SHARES_LIST: u8 = 1 << 1;
    /// Automated client (Figs. 8–9 heavy tail).
    pub const ROBOT: u8 = 1 << 2;
}

/// Everything needed to materialise one peer; the list fields are
/// borrowed and copied into the table's arenas by [`PeerTable::push`].
pub struct NewPeer<'a> {
    pub identity: PeerIdentity,
    pub probe_only: bool,
    pub shares_list: bool,
    pub robot: bool,
    /// Catalog indices of the files this peer itself shares.
    pub shared_files: &'a [u32],
    /// Catalog indices of advertised files the peer wants.
    pub wanted: &'a [u32],
    /// Honeypot indices in the peer's provider subset.
    pub providers: &'a [u8],
    /// The peer stops retrying after this instant.
    pub interest_until: SimTime,
}

/// The peer population, one column per field.
///
/// Arena columns: `wanted`, `shared_files` and `providers` are immutable
/// after `push` and addressed by `bounds[i]..bounds[i + 1]`.  The contact
/// `order` of the current round is mutable but never longer than the
/// provider list, so it reuses the provider range's offsets with its own
/// per-peer length.
#[derive(Default)]
pub struct PeerTable {
    identities: Vec<PeerIdentity>,
    flags: Vec<u8>,
    interest_until: Vec<SimTime>,
    /// Personal blacklist bitmask over honeypot indices.
    blacklist: Vec<u64>,
    /// Honeypots that already received this peer's shared list (bitmask).
    shared_sent: Vec<u64>,
    /// Cumulative hard failures across sessions.
    failures: Vec<u8>,
    /// Retry rounds completed so far.
    rounds: Vec<u16>,
    /// Position within the current contact order.
    pos: Vec<u8>,
    /// In-flight session, if any.
    sessions: Vec<Option<Session>>,
    wanted_bounds: Vec<u32>,
    wanted_arena: Vec<u32>,
    shared_bounds: Vec<u32>,
    shared_arena: Vec<u32>,
    provider_bounds: Vec<u32>,
    provider_arena: Vec<u8>,
    /// Contact order for the current round; shares `provider_bounds`.
    order_arena: Vec<u8>,
    order_len: Vec<u8>,
}

impl PeerTable {
    pub fn new() -> Self {
        PeerTable {
            wanted_bounds: vec![0],
            shared_bounds: vec![0],
            provider_bounds: vec![0],
            ..PeerTable::default()
        }
    }

    /// Number of materialised peers.
    pub fn len(&self) -> usize {
        self.identities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.identities.is_empty()
    }

    /// Appends a peer, copying its lists into the arenas; returns its
    /// index.
    pub fn push(&mut self, p: NewPeer<'_>) -> u32 {
        debug_assert!(p.providers.len() <= MAX_HONEYPOTS);
        let idx = self.identities.len() as u32;
        self.identities.push(p.identity);
        let mut flags = 0u8;
        if p.probe_only {
            flags |= flag::PROBE_ONLY;
        }
        if p.shares_list {
            flags |= flag::SHARES_LIST;
        }
        if p.robot {
            flags |= flag::ROBOT;
        }
        self.flags.push(flags);
        self.interest_until.push(p.interest_until);
        self.blacklist.push(0);
        self.shared_sent.push(0);
        self.failures.push(0);
        self.rounds.push(0);
        self.pos.push(0);
        self.sessions.push(None);
        self.wanted_arena.extend_from_slice(p.wanted);
        self.wanted_bounds.push(self.wanted_arena.len() as u32);
        self.shared_arena.extend_from_slice(p.shared_files);
        self.shared_bounds.push(self.shared_arena.len() as u32);
        self.provider_arena.extend_from_slice(p.providers);
        // The order slice shares the provider range: a round's contact
        // order is a subset of the providers, so the capacity always fits.
        self.order_arena.resize(self.provider_arena.len(), 0);
        self.provider_bounds.push(self.provider_arena.len() as u32);
        self.order_len.push(0);
        idx
    }

    fn range(bounds: &[u32], i: u32) -> std::ops::Range<usize> {
        bounds[i as usize] as usize..bounds[i as usize + 1] as usize
    }

    pub fn identity(&self, i: u32) -> &PeerIdentity {
        &self.identities[i as usize]
    }

    pub fn probe_only(&self, i: u32) -> bool {
        self.flags[i as usize] & flag::PROBE_ONLY != 0
    }

    pub fn shares_list(&self, i: u32) -> bool {
        self.flags[i as usize] & flag::SHARES_LIST != 0
    }

    pub fn robot(&self, i: u32) -> bool {
        self.flags[i as usize] & flag::ROBOT != 0
    }

    pub fn wanted(&self, i: u32) -> &[u32] {
        &self.wanted_arena[Self::range(&self.wanted_bounds, i)]
    }

    pub fn shared_files(&self, i: u32) -> &[u32] {
        &self.shared_arena[Self::range(&self.shared_bounds, i)]
    }

    pub fn providers(&self, i: u32) -> &[u8] {
        &self.provider_arena[Self::range(&self.provider_bounds, i)]
    }

    /// Whether the peer has personally blacklisted honeypot `hp`.
    pub fn is_blacklisted(&self, i: u32, hp: u8) -> bool {
        self.blacklist[i as usize] & (1u64 << hp) != 0
    }

    /// Adds `hp` to the peer's personal blacklist.
    pub fn blacklist_hp(&mut self, i: u32, hp: u8) {
        self.blacklist[i as usize] |= 1u64 << hp;
    }

    /// Whether the shared list was already sent to `hp`.
    pub fn shared_sent_to(&self, i: u32, hp: u8) -> bool {
        self.shared_sent[i as usize] & (1u64 << hp) != 0
    }

    pub fn mark_shared_sent(&mut self, i: u32, hp: u8) {
        self.shared_sent[i as usize] |= 1u64 << hp;
    }

    /// Whether every provider is personally blacklisted (the peer has
    /// nothing left to try).
    pub fn all_blacklisted(&self, i: u32) -> bool {
        let mask = self.blacklist[i as usize];
        self.providers(i).iter().all(|&hp| mask & (1u64 << hp) != 0)
    }

    /// Whether the peer abandons the measurement entirely: interest
    /// expired, too many failures (robots never abandon), or nothing left
    /// to contact.
    pub fn done(&self, i: u32, now: SimTime, abandon_failures: u32) -> bool {
        if self.robot(i) {
            return false;
        }
        now >= self.interest_until[i as usize]
            || u32::from(self.failures[i as usize]) >= abandon_failures
            || self.all_blacklisted(i)
    }

    pub fn bump_failures(&mut self, i: u32) {
        let f = &mut self.failures[i as usize];
        *f = f.saturating_add(1);
    }

    pub fn rounds(&self, i: u32) -> u16 {
        self.rounds[i as usize]
    }

    pub fn bump_rounds(&mut self, i: u32) {
        let r = &mut self.rounds[i as usize];
        *r = r.saturating_add(1);
    }

    pub fn pos(&self, i: u32) -> u8 {
        self.pos[i as usize]
    }

    pub fn bump_pos(&mut self, i: u32) {
        let p = &mut self.pos[i as usize];
        *p = p.saturating_add(1);
    }

    pub fn session(&self, i: u32) -> Option<Session> {
        self.sessions[i as usize]
    }

    pub fn session_mut(&mut self, i: u32) -> &mut Option<Session> {
        &mut self.sessions[i as usize]
    }

    pub fn take_session(&mut self, i: u32) -> Option<Session> {
        self.sessions[i as usize].take()
    }

    pub fn order(&self, i: u32) -> &[u8] {
        let r = Self::range(&self.provider_bounds, i);
        &self.order_arena[r.start..r.start + self.order_len[i as usize] as usize]
    }

    /// Installs a new contact order (must fit the provider range) and
    /// resets the round cursor and session.
    pub fn set_order(&mut self, i: u32, order: &[u8]) {
        let r = Self::range(&self.provider_bounds, i);
        assert!(order.len() <= r.len(), "order must be a subset of the providers");
        self.order_arena[r.start..r.start + order.len()].copy_from_slice(order);
        self.order_len[i as usize] = order.len() as u8;
        self.pos[i as usize] = 0;
        self.sessions[i as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::IdentityFactory;
    use netsim::Rng;

    fn table() -> PeerTable {
        let mut f = IdentityFactory::new(Rng::seed_from(1));
        let mut t = PeerTable::new();
        t.push(NewPeer {
            identity: f.create(),
            probe_only: false,
            shares_list: true,
            robot: false,
            shared_files: &[1, 2],
            wanted: &[0],
            providers: &[0, 1, 2],
            interest_until: SimTime::from_days(1),
        });
        t
    }

    #[test]
    fn columns_round_trip() {
        let mut f = IdentityFactory::new(Rng::seed_from(2));
        let mut t = PeerTable::new();
        let a = t.push(NewPeer {
            identity: f.create(),
            probe_only: true,
            shares_list: false,
            robot: false,
            shared_files: &[],
            wanted: &[3, 4, 5],
            providers: &[1],
            interest_until: SimTime::from_hours(2),
        });
        let b = t.push(NewPeer {
            identity: f.create(),
            probe_only: false,
            shares_list: true,
            robot: true,
            shared_files: &[9],
            wanted: &[7],
            providers: &[0, 2],
            interest_until: SimTime(u64::MAX),
        });
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.wanted(a), &[3, 4, 5]);
        assert_eq!(t.wanted(b), &[7]);
        assert_eq!(t.shared_files(a), &[] as &[u32]);
        assert_eq!(t.shared_files(b), &[9]);
        assert_eq!(t.providers(a), &[1]);
        assert_eq!(t.providers(b), &[0, 2]);
        assert!(t.probe_only(a) && !t.probe_only(b));
        assert!(!t.shares_list(a) && t.shares_list(b));
        assert!(!t.robot(a) && t.robot(b));
        assert_ne!(t.identity(a).ip, t.identity(b).ip);
    }

    #[test]
    fn blacklist_bitmask() {
        let mut t = table();
        assert!(!t.is_blacklisted(0, 2));
        t.blacklist_hp(0, 2);
        assert!(t.is_blacklisted(0, 2));
        assert!(!t.is_blacklisted(0, 0));
        assert!(!t.all_blacklisted(0));
        t.blacklist_hp(0, 0);
        t.blacklist_hp(0, 1);
        assert!(t.all_blacklisted(0));
    }

    #[test]
    fn shared_sent_tracking() {
        let mut t = table();
        assert!(!t.shared_sent_to(0, 5));
        t.mark_shared_sent(0, 5);
        assert!(t.shared_sent_to(0, 5));
        assert!(!t.shared_sent_to(0, 4));
    }

    #[test]
    fn done_conditions() {
        let mut t = table();
        assert!(!t.done(0, SimTime::from_hours(1), 4));
        assert!(t.done(0, SimTime::from_days(2), 4), "interest expired");
        for _ in 0..4 {
            t.bump_failures(0);
        }
        assert!(t.done(0, SimTime::ZERO, 4), "too many failures");
        let mut t = table();
        for hp in [0, 1, 2] {
            t.blacklist_hp(0, hp);
        }
        assert!(t.done(0, SimTime::ZERO, 4), "everything blacklisted");
    }

    #[test]
    fn robots_never_give_up() {
        let mut f = IdentityFactory::new(Rng::seed_from(3));
        let mut t = PeerTable::new();
        t.push(NewPeer {
            identity: f.create(),
            probe_only: false,
            shares_list: false,
            robot: true,
            shared_files: &[],
            wanted: &[0],
            providers: &[0, 1, 2],
            interest_until: SimTime(u64::MAX),
        });
        for _ in 0..200 {
            t.bump_failures(0);
        }
        for hp in [0, 1, 2] {
            t.blacklist_hp(0, hp);
        }
        assert!(!t.done(0, SimTime::from_days(100), 4));
    }

    #[test]
    fn order_reuses_the_provider_range() {
        let mut t = table();
        assert_eq!(t.order(0), &[] as &[u8]);
        t.set_order(0, &[2, 0]);
        assert_eq!(t.order(0), &[2, 0]);
        assert_eq!(t.pos(0), 0);
        t.bump_pos(0);
        assert_eq!(t.pos(0), 1);
        // A later, shorter round overwrites in place.
        t.set_order(0, &[1]);
        assert_eq!(t.order(0), &[1]);
        assert_eq!(t.pos(0), 0);
    }

    #[test]
    #[should_panic(expected = "subset of the providers")]
    fn oversized_order_rejected() {
        let mut t = table();
        t.set_order(0, &[0, 1, 2, 3]);
    }

    #[test]
    fn sessions_are_per_peer() {
        let mut t = table();
        assert!(t.session(0).is_none());
        *t.session_mut(0) = Some(Session {
            hp: 1,
            file: 0,
            state: SessionState::Greet,
            budget: 3,
            timeouts: 0,
            do_request: true,
            conn: 7,
            block_cursor: 0,
            delivered: false,
        });
        assert_eq!(t.session(0).unwrap().conn, 7);
        let taken = t.take_session(0).unwrap();
        assert_eq!(taken.hp, 1);
        assert!(t.session(0).is_none());
    }

    #[test]
    fn highest_honeypot_index_fits_the_masks() {
        let mut t = table();
        let top = (MAX_HONEYPOTS - 1) as u8;
        t.blacklist_hp(0, top);
        assert!(t.is_blacklisted(0, top));
        t.mark_shared_sent(0, top);
        assert!(t.shared_sent_to(0, top));
    }
}
