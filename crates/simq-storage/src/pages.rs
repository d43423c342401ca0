//! The paged binary file layer under snapshots.
//!
//! A snapshot is one logical byte stream chunked into fixed-size pages, the
//! unit a production storage engine reads, caches and checksums
//! independently. The layout (all integers little-endian):
//!
//! ```text
//! page 0 (superblock):
//!   magic      "SIMQPAGE"            8 bytes
//!   version    u32                   format version (currently 1)
//!   page_size  u32                   fixed page size (4096)
//!   page_count u64                   total pages including this one
//!   stream_len u64                   logical stream length in bytes
//!   checksum   u64                   [`checksum`] of the 32 bytes above
//!   zero padding to page_size
//! pages 1..page_count (data):
//!   checksum   u64                   [`checksum`] of the payload area
//!   payload    page_size − 8 bytes   stream bytes, zero-padded in the last page
//! ```
//!
//! Every byte of the file is covered: the superblock fields by the header
//! checksum, payloads *and their padding* by per-page checksums, and the
//! file length by `page_count` (trailing garbage is rejected). A single
//! flipped byte anywhere therefore fails verification — the corruption
//! property tests flip every position and expect an error.
//!
//! Files are written as the stream is produced, never built whole:
//! `PageWriter` is an `io::Write` that checksums and writes each data page
//! as its payload fills. The superblock goes last: its page is written as
//! zeros first, and once the stream ends the writer seeks back to offset 0
//! and writes the header there. A checkpoint or MANIFEST written through
//! `write_atomic` therefore holds one page and one write buffer, not the
//! image, and the in-memory images ([`to_file_bytes`],
//! [`crate::snapshot::to_bytes`]) come from the same writer over a `Vec`.

use std::fs::{self, File};
use std::io::{self, BufWriter, Cursor, Seek, SeekFrom, Write};
use std::path::Path;

/// Fixed page size of the format.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of stream payload per data page (the rest is the checksum).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 8;

const MAGIC: &[u8; 8] = b"SIMQPAGE";
const VERSION: u32 = 1;
/// Superblock bytes covered by the header checksum.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// Errors from reading a paged file.
#[derive(Debug)]
pub enum PageError {
    /// I/O failure.
    Io(io::Error),
    /// The file is not a paged snapshot or its geometry is inconsistent.
    Format(String),
    /// A page failed checksum verification.
    Checksum {
        /// Page index (0 is the superblock).
        page: u64,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(e) => write!(f, "i/o error: {e}"),
            PageError::Format(m) => write!(f, "page format error: {m}"),
            PageError::Checksum { page } => write!(f, "checksum mismatch in page {page}"),
        }
    }
}

impl std::error::Error for PageError {}

impl From<io::Error> for PageError {
    fn from(e: io::Error) -> Self {
        PageError::Io(e)
    }
}

/// Word-wise 64-bit checksum (xxHash-style mix rounds over little-endian
/// `u64` words, byte tail folded in) — dependency-free, byte-order stable,
/// and an order of magnitude faster than byte-serial FNV on the multi-MB
/// streams cold starts read. Any single-byte change flips the result.
pub fn checksum(bytes: &[u8]) -> u64 {
    const C1: u64 = 0x9E37_79B1_85EB_CA87;
    const C2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut h: u64 = 0x27D4_EB2F_1656_67C5 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        h = (h ^ w.wrapping_mul(C1)).rotate_left(31).wrapping_mul(C2);
    }
    for b in chunks.remainder() {
        h = (h ^ u64::from(*b).wrapping_mul(C1))
            .rotate_left(11)
            .wrapping_mul(C2);
    }
    // Final avalanche so low-entropy inputs still spread over all bits.
    h ^= h >> 33;
    h = h.wrapping_mul(C2);
    h ^= h >> 29;
    h
}

/// Streams a logical byte stream into paged form: each data page is
/// checksummed and written the moment its payload fills, so the writer
/// holds one page, never the image. The superblock's page is written as
/// zeros first and filled in by `finish`, which seeks back to offset 0
/// once the stream length is known.
pub(crate) struct PageWriter<W: Write + Seek> {
    out: W,
    /// The page being filled: its checksum slot, then the payload.
    page: Vec<u8>,
    /// Payload bytes in `page`.
    fill: usize,
    /// Stream bytes written so far.
    stream_len: u64,
}

impl<W: Write + Seek> PageWriter<W> {
    /// Starts a paged image at offset 0 of `out`.
    fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&[0u8; PAGE_SIZE])?;
        Ok(PageWriter {
            out,
            page: vec![0u8; PAGE_SIZE],
            fill: 0,
            stream_len: 0,
        })
    }

    /// Checksums and writes the current page, its payload zero-padded.
    fn emit(&mut self) -> io::Result<()> {
        self.page[8 + self.fill..].fill(0);
        let sum = checksum(&self.page[8..]);
        self.page[..8].copy_from_slice(&sum.to_le_bytes());
        self.out.write_all(&self.page)?;
        self.fill = 0;
        Ok(())
    }

    /// Writes the last, partly filled page and then the superblock, and
    /// returns the output and the image's length in bytes.
    fn finish(mut self) -> io::Result<(W, u64)> {
        if self.fill > 0 {
            self.emit()?;
        }
        let page_count = self.stream_len.div_ceil(PAGE_PAYLOAD as u64) + 1;
        let mut header = [0u8; HEADER_LEN + 8];
        header[..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[16..24].copy_from_slice(&page_count.to_le_bytes());
        header[24..32].copy_from_slice(&self.stream_len.to_le_bytes());
        let header_sum = checksum(&header[..HEADER_LEN]);
        header[HEADER_LEN..].copy_from_slice(&header_sum.to_le_bytes());
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header)?;
        Ok((self.out, page_count * PAGE_SIZE as u64))
    }
}

impl<W: Write + Seek> Write for PageWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_all(buf)?;
        Ok(buf.len())
    }

    fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let take = (PAGE_PAYLOAD - self.fill).min(buf.len());
            self.page[8 + self.fill..8 + self.fill + take].copy_from_slice(&buf[..take]);
            self.fill += take;
            self.stream_len += take as u64;
            buf = &buf[take..];
            if self.fill == PAGE_PAYLOAD {
                self.emit()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes to `out` the paged image of the stream `write` produces.
/// Returns the output and the image's length in bytes.
fn paged<W: Write + Seek>(
    out: W,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<(W, u64)> {
    let mut pages = PageWriter::new(out)?;
    write(&mut pages)?;
    pages.finish()
}

/// The paged image of the stream `write` produces, in memory.
pub(crate) fn image(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Vec<u8> {
    let (out, _) = paged(Cursor::new(Vec::new()), write).expect("writing to memory cannot fail");
    out.into_inner()
}

/// Wraps a logical byte stream into a paged file image.
pub fn to_file_bytes(stream: &[u8]) -> Vec<u8> {
    image(|pages| pages.write_all(stream))
}

/// Verifies a paged file image and returns the logical byte stream.
///
/// # Errors
/// [`PageError`] on any geometry inconsistency or checksum mismatch.
pub fn from_file_bytes(file: &[u8]) -> Result<Vec<u8>, PageError> {
    if file.len() < PAGE_SIZE {
        return Err(PageError::Format(format!(
            "file of {} bytes is smaller than one page",
            file.len()
        )));
    }
    if &file[..8] != MAGIC {
        return Err(PageError::Format("bad magic".into()));
    }
    let version = u32::from_le_bytes(file[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(PageError::Format(format!(
            "unsupported page-format version {version} (expected {VERSION})"
        )));
    }
    let page_size = u32::from_le_bytes(file[12..16].try_into().expect("4 bytes")) as usize;
    if page_size != PAGE_SIZE {
        return Err(PageError::Format(format!(
            "page size {page_size} (expected {PAGE_SIZE})"
        )));
    }
    let page_count = u64::from_le_bytes(file[16..24].try_into().expect("8 bytes"));
    let stream_len_u64 = u64::from_le_bytes(file[24..32].try_into().expect("8 bytes"));
    let stored_sum = u64::from_le_bytes(file[32..40].try_into().expect("8 bytes"));
    if checksum(&file[..HEADER_LEN]) != stored_sum {
        return Err(PageError::Checksum { page: 0 });
    }
    // Superblock padding must be zero — it is not otherwise checksummed.
    if file[40..PAGE_SIZE].iter().any(|b| *b != 0) {
        return Err(PageError::Format("nonzero superblock padding".into()));
    }

    let Ok(stream_len) = usize::try_from(stream_len_u64) else {
        return Err(PageError::Format(format!(
            "stream length {stream_len_u64} overflows usize"
        )));
    };
    let expected_pages = (stream_len.div_ceil(PAGE_PAYLOAD) + 1) as u64;
    if page_count != expected_pages {
        return Err(PageError::Format(format!(
            "page count {page_count} disagrees with stream length {stream_len} \
             (expected {expected_pages} pages)"
        )));
    }
    let expected_file_len = page_count as usize * PAGE_SIZE;
    if file.len() != expected_file_len {
        return Err(PageError::Format(format!(
            "file is {} bytes, geometry requires {expected_file_len}",
            file.len()
        )));
    }

    let mut stream = Vec::with_capacity(stream_len);
    for (i, page) in file[PAGE_SIZE..].chunks_exact(PAGE_SIZE).enumerate() {
        let stored = u64::from_le_bytes(page[..8].try_into().expect("8 bytes"));
        let payload = &page[8..];
        if checksum(payload) != stored {
            return Err(PageError::Checksum { page: i as u64 + 1 });
        }
        let take = (stream_len - stream.len()).min(PAGE_PAYLOAD);
        stream.extend_from_slice(&payload[..take]);
        // Padding beyond the stream participates in the checksum above, so
        // a flip there is already caught; require it to be zero as well so
        // the encoding is canonical.
        if payload[take..].iter().any(|b| *b != 0) {
            return Err(PageError::Format(format!(
                "nonzero padding in final page {}",
                i + 1
            )));
        }
    }
    Ok(stream)
}

/// Fsyncs the directory at `dir` so entries created, renamed or removed
/// inside it are durable. A rename is only a commit point once the
/// *directory entry* reaches disk: `fs::rename` orders the data (the temp
/// file was flushed first) but says nothing about the entry itself, and on
/// power loss an unsynced directory can legally forget the rename, the
/// file creation, or both.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Opening a directory read-only and calling fsync on it is the
    // POSIX-blessed way to flush its entries (what every database does).
    File::open(dir)?.sync_all()
}

/// [`fsync_dir`] for the parent of `path` (no-op when `path` has none).
pub(crate) fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
        _ => Ok(()),
    }
}

/// Writes the paged image of the stream `write` produces to `path`,
/// atomically and durably, and returns the image's length in bytes.
///
/// Pages go through a buffer to a temporary file in the same directory
/// as they fill; the file is fsynced, renamed over the target, and sealed
/// with a parent-directory fsync. So a crash or full disk mid-write never
/// destroys an existing good file (a failed write removes the temporary
/// file), and once this returns the rename itself survives power loss
/// (the parent fsync is what makes the rename a commit point, not just an
/// in-cache state).
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<u64> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let write_synced = || -> io::Result<u64> {
        let (file, len) = paged(BufWriter::new(File::create(&tmp)?), write)?;
        // Flush the temp file's *contents* before the rename: rename must
        // never expose a file whose data could still be lost.
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(len)
    };
    let len = write_synced().inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })?;
    fs::rename(&tmp, path).inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })?;
    fsync_parent_dir(path)?;
    Ok(len)
}

/// Reads and verifies a paged file, returning the logical stream.
///
/// # Errors
/// [`PageError`] on I/O failure, geometry inconsistency or checksum
/// mismatch.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<u8>, PageError> {
    from_file_bytes(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [
            0,
            1,
            PAGE_PAYLOAD - 1,
            PAGE_PAYLOAD,
            PAGE_PAYLOAD + 1,
            3 * PAGE_PAYLOAD + 17,
        ] {
            let stream = sample_stream(n);
            let file = to_file_bytes(&stream);
            assert_eq!(file.len() % PAGE_SIZE, 0);
            assert_eq!(from_file_bytes(&file).unwrap(), stream);
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let stream = sample_stream(PAGE_PAYLOAD + 100);
        let file = to_file_bytes(&stream);
        for pos in 0..file.len() {
            let mut corrupt = file.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                from_file_bytes(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncated_and_padded_files_rejected() {
        let file = to_file_bytes(&sample_stream(100));
        assert!(from_file_bytes(&file[..file.len() - 1]).is_err());
        assert!(from_file_bytes(&file[..PAGE_SIZE / 2]).is_err());
        let mut longer = file.clone();
        longer.extend_from_slice(&[0u8; 7]);
        assert!(from_file_bytes(&longer).is_err());
        let mut extra_page = file;
        extra_page.extend_from_slice(&[0u8; PAGE_SIZE]);
        assert!(from_file_bytes(&extra_page).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("simq-pages-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let stream = sample_stream(10_000);
        let len = write_atomic(&path, |pages| {
            // Uneven pieces, so writes straddle page boundaries.
            stream
                .chunks(1_000)
                .try_for_each(|piece| pages.write_all(piece))
        })
        .unwrap();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file, to_file_bytes(&stream));
        assert_eq!(len, file.len() as u64);
        assert_eq!(read_file(&path).unwrap(), stream);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write that fails part-way leaves no temporary file, and the file
    /// already at the path is untouched.
    #[test]
    fn failed_write_removes_the_temporary_file() {
        let dir = std::env::temp_dir().join(format!("simq-pages-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let old = to_file_bytes(&sample_stream(100));
        std::fs::write(&path, &old).unwrap();
        let err = write_atomic(&path, |pages| {
            pages.write_all(&sample_stream(3 * PAGE_PAYLOAD))?;
            Err(io::Error::other("injected failure"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected failure");
        assert!(!dir.join("pages.bin.tmp").exists());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_dir_all(&dir).ok();
    }
}
