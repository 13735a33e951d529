//! A scripted eDonkey peer for integration tests and examples.
//!
//! Performs the genuine client-side message flow of paper Fig. 1 against a
//! real server and honeypot: login → GET-SOURCES → HELLO → (HELLO-ANSWER)
//! → START-UPLOAD → (ACCEPT-UPLOAD) → REQUEST-PARTS → observe what comes
//! back.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use edonkey_proto::messages::SendingPartRef;
use edonkey_proto::opcodes::peer::SENDING_PART;
use edonkey_proto::tags::{special, Tag};
use edonkey_proto::{
    ClientId, ClientServerMessage, FileId, PartRange, PeerAddr, PeerMessage, PublishedFile,
    SearchExpr, UserId,
};

use crate::framing::{would_block, FramedStream, NetError};

/// A scripted peer.
pub struct ScriptedPeer {
    pub user_id: UserId,
    pub name: String,
    server: FramedStream,
    pub client_id: ClientId,
}

/// Outcome of one download attempt against a provider.
#[derive(Debug, Default)]
pub struct DownloadAttempt {
    pub hello_answered: bool,
    pub upload_accepted: bool,
    /// SENDING-PART payload bytes received.
    pub bytes_received: usize,
    /// Number of REQUEST-PARTS that received at least one answer block.
    pub answered_requests: u32,
    /// Number of REQUEST-PARTS that timed out unanswered.
    pub timed_out_requests: u32,
    /// Shared-list request received from the provider (honeypots ask).
    pub was_asked_shared_files: bool,
}

impl ScriptedPeer {
    /// Connects and logs into the server.
    pub fn login(server_addr: SocketAddr, name: &str) -> Result<Self, NetError> {
        let mut server = FramedStream::new(TcpStream::connect(server_addr)?);
        let user_id = UserId::from_seed(name.as_bytes());
        server.write_server_message(&ClientServerMessage::LoginRequest {
            user_id,
            client_id: ClientId(0),
            port: 4662,
            tags: vec![Tag::string(special::NAME, name), Tag::u32(special::VERSION, 0x49)],
        })?;
        let mut client_id = ClientId(0);
        // Consume the login burst (ID-CHANGE + MOTD).
        for _ in 0..2 {
            match server.read_server_message(true)? {
                ClientServerMessage::IdChange { client_id: id } => client_id = id,
                ClientServerMessage::ServerMessage { .. } => {}
                other => return Err(NetError::Unexpected(format!("login reply {other:?}"))),
            }
        }
        Ok(ScriptedPeer { user_id, name: name.to_string(), server, client_id })
    }

    /// Asks the server who provides `file_id`.
    pub fn get_sources(&mut self, file_id: FileId) -> Result<Vec<PeerAddr>, NetError> {
        self.server.write_server_message(&ClientServerMessage::GetSources { file_id })?;
        loop {
            match self.server.read_server_message(true)? {
                ClientServerMessage::FoundSources { sources, .. } => return Ok(sources),
                ClientServerMessage::ServerMessage { .. }
                | ClientServerMessage::ServerStatus { .. } => continue,
                other => {
                    return Err(NetError::Unexpected(format!("answer to GET-SOURCES {other:?}")))
                }
            }
        }
    }

    /// Runs a keyword search against the server.
    pub fn search(&mut self, expr: SearchExpr) -> Result<Vec<PublishedFile>, NetError> {
        self.server.write_server_message(&ClientServerMessage::SearchRequest { expr })?;
        loop {
            match self.server.read_server_message(true)? {
                ClientServerMessage::SearchResult { files } => return Ok(files),
                ClientServerMessage::ServerMessage { .. }
                | ClientServerMessage::ServerStatus { .. } => continue,
                other => {
                    return Err(NetError::Unexpected(format!("answer to SEARCH-REQUEST {other:?}")))
                }
            }
        }
    }

    /// Publishes files (so peers can play "provider" in tests too).
    pub fn offer(&mut self, files: &[(FileId, &str, u64)]) -> Result<(), NetError> {
        self.server.write_server_message(&ClientServerMessage::OfferFiles {
            files: files.iter().map(|(id, n, s)| PublishedFile::new(*id, n, *s)).collect(),
        })?;
        Ok(())
    }

    /// Runs one download attempt against the provider at `addr`,
    /// requesting up to `max_requests` block triples of `file_id`, waiting
    /// `request_timeout` for each answer.  `shared_files` is what this
    /// peer reveals if asked for its list (empty list = sharing disabled).
    pub fn attempt_download(
        &mut self,
        addr: SocketAddr,
        file_id: FileId,
        max_requests: u32,
        request_timeout: Duration,
        shared_files: &[(FileId, &str, u64)],
    ) -> Result<DownloadAttempt, NetError> {
        let mut out = DownloadAttempt::default();
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(request_timeout))?;
        let mut conn = FramedStream::new(stream);

        conn.write_peer_message(&PeerMessage::Hello {
            user_id: self.user_id,
            client_id: self.client_id,
            port: 4662,
            tags: vec![
                Tag::string(special::NAME, self.name.clone()),
                Tag::u32(special::VERSION, 0x49),
            ],
        })?;

        // HELLO-ANSWER (and possibly ASK-SHARED-FILES) arrive first.
        loop {
            match conn.read_peer_message() {
                Ok(PeerMessage::HelloAnswer { .. }) => {
                    out.hello_answered = true;
                    break;
                }
                Ok(PeerMessage::AskSharedFiles) => {
                    out.was_asked_shared_files = true;
                    self.answer_shared(&mut conn, shared_files)?;
                }
                Ok(_) => continue,
                Err(NetError::Io(e)) if would_block(&e) => return Ok(out),
                Err(NetError::Closed) => return Ok(out),
                Err(e) => return Err(e),
            }
        }

        conn.write_peer_message(&PeerMessage::StartUpload { file_id })?;
        loop {
            match conn.read_peer_message() {
                Ok(PeerMessage::AcceptUpload) => {
                    out.upload_accepted = true;
                    break;
                }
                Ok(PeerMessage::AskSharedFiles) => {
                    out.was_asked_shared_files = true;
                    self.answer_shared(&mut conn, shared_files)?;
                }
                Ok(PeerMessage::QueueRank { .. }) | Ok(_) => continue,
                Err(NetError::Io(e)) if would_block(&e) => return Ok(out),
                Err(NetError::Closed) => return Ok(out),
                Err(e) => return Err(e),
            }
        }

        const BLOCK: u32 = edonkey_proto::parts::BLOCK_SIZE as u32;
        for i in 0..max_requests {
            let base = i * 3 * BLOCK;
            conn.write_peer_message(&PeerMessage::RequestParts {
                file_id,
                ranges: [
                    PartRange::new(base, base + BLOCK),
                    PartRange::new(base + BLOCK, base + 2 * BLOCK),
                    PartRange::new(base + 2 * BLOCK, base + 3 * BLOCK),
                ],
            })?;
            let mut answered = false;
            // Expect up to three SENDING-PART answers; any timeout ends the
            // wait for this request.
            for _ in 0..3 {
                // A block is only counted, so it is decoded where it lies.
                let msg = match conn.read_frame() {
                    Ok(frame) if frame.opcode == SENDING_PART => {
                        answered = true;
                        out.bytes_received += SendingPartRef::decode(frame.payload)?.data.len();
                        continue;
                    }
                    Ok(frame) => Ok(PeerMessage::decode_payload(frame.opcode, frame.payload)?),
                    Err(e) => Err(e),
                };
                match msg {
                    Ok(PeerMessage::AskSharedFiles) => {
                        out.was_asked_shared_files = true;
                        self.answer_shared(&mut conn, shared_files)?;
                    }
                    Ok(_) => continue,
                    Err(NetError::Io(e)) if would_block(&e) => break,
                    Err(NetError::Closed) => break,
                    Err(e) => return Err(e),
                }
            }
            if answered {
                out.answered_requests += 1;
            } else {
                out.timed_out_requests += 1;
            }
        }
        Ok(out)
    }

    fn answer_shared(
        &self,
        conn: &mut FramedStream,
        shared_files: &[(FileId, &str, u64)],
    ) -> Result<(), NetError> {
        conn.write_peer_message(&PeerMessage::AskSharedFilesAnswer {
            files: shared_files.iter().map(|(id, n, s)| PublishedFile::new(*id, n, *s)).collect(),
        })
    }
}
