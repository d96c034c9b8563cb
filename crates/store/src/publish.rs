//! Atomic publication: the one way a file this system writes becomes
//! durable and visible.
//!
//! [`publish_atomic`] writes `<file name>.tmp` beside the target, fsyncs
//! it, renames it over the target and fsyncs the directory, so an
//! observer only ever sees the old file or the complete new one, and a
//! file another file names (a manifest's base snapshot, its segments) is
//! on disk before the naming file is. Every error propagates. A crash
//! leaves at most a `.tmp` stray beside an untouched target; the next
//! publish to the same path truncates it, and the ingest open sweeps it.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Publish `path` atomically: `write` fills a buffered handle on
/// `<file name>.tmp` beside it, then the routine flushes and fsyncs the
/// file, renames it over `path` and fsyncs the containing directory.
/// If any step before the rename fails, the tmp file is removed and
/// `path` is left untouched. Returns what `write` returned.
pub fn publish_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = tmp_path(path)?;
    let staged = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        let value = write(&mut out)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(value)
    });
    if staged.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    let value = staged?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(value)
}

/// `<file name>.tmp` beside `path`.
fn tmp_path(path: &Path) -> io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: not a file path", path.display()),
            )
        })?
        .to_os_string();
    name.push(".tmp");
    Ok(path.with_file_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, SnapshotWriter};
    use std::io::Write;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("inspire-publish-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A small store snapshot: header, two sections, table.
    fn snapshot_bytes(seed: u32) -> Vec<u8> {
        let mut out = io::Cursor::new(Vec::new());
        let mut w = SnapshotWriter::new(&mut out).unwrap();
        w.add_u32s("ids", &[seed, seed + 1, seed + 2]).unwrap();
        w.add_str("text", &"published ".repeat(seed as usize))
            .unwrap();
        w.finish().unwrap();
        out.into_inner()
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn publishes_and_replaces() {
        let d = dir("replace");
        let path = d.join("a.isnap");
        let old = snapshot_bytes(1);
        let n = publish_atomic(&path, |f| f.write_all(&old).map(|()| old.len())).unwrap();
        assert_eq!(n, old.len());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        let new = snapshot_bytes(2);
        publish_atomic(&path, |f| f.write_all(&new)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), new);
        assert_eq!(entries(&d), ["a.isnap"]);
        assert_eq!(tmp_path(&path).unwrap(), d.join("a.isnap.tmp"));
        assert!(publish_atomic(Path::new("/"), |_| Ok(())).is_err());
        std::fs::remove_dir_all(&d).ok();
    }

    /// A disk that fills up (or fails) after `k` bytes of the new file:
    /// for every `k` over the whole snapshot, the error surfaces, the
    /// old file stays byte-identical and no `.tmp` is left behind.
    #[test]
    fn failed_write_at_every_byte_keeps_the_old_file() {
        let d = dir("faults");
        let path = d.join("gen.isnap");
        let old = snapshot_bytes(1);
        publish_atomic(&path, |f| f.write_all(&old)).unwrap();
        let new = snapshot_bytes(7);
        assert_ne!(old, new);
        const ENOSPC: i32 = 28;
        const EIO: i32 = 5;
        for k in 0..=new.len() {
            for code in [ENOSPC, EIO] {
                let err = publish_atomic(&path, |f| {
                    f.write_all(&new[..k])?;
                    Err::<(), _>(io::Error::from_raw_os_error(code))
                })
                .unwrap_err();
                assert_eq!(err.raw_os_error(), Some(code), "k={k}");
                assert_eq!(std::fs::read(&path).unwrap(), old, "k={k}");
                assert_eq!(entries(&d), ["gen.isnap"], "k={k}");
            }
        }
        Snapshot::open(&path).unwrap();
        std::fs::remove_dir_all(&d).ok();
    }

    /// A crash between fsync and rename leaves a complete or torn tmp
    /// beside the old file: the old file still opens, and the next
    /// publish replaces it over the stale tmp, which may be longer than
    /// what replaces it.
    #[test]
    fn next_publish_succeeds_over_a_stale_tmp() {
        let d = dir("stale");
        let path = d.join("gen.isnap");
        let old = snapshot_bytes(1);
        let new = snapshot_bytes(2);
        let longer = snapshot_bytes(9);
        for stale in [&longer[..], &longer[..longer.len() / 2]] {
            publish_atomic(&path, |f| f.write_all(&old)).unwrap();
            std::fs::write(tmp_path(&path).unwrap(), stale).unwrap();
            let s = Snapshot::open(&path).unwrap();
            assert_eq!(s.require("ids").unwrap().as_u32s().unwrap(), &[1, 2, 3]);
            publish_atomic(&path, |f| f.write_all(&new)).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), new);
            assert_eq!(entries(&d), ["gen.isnap"]);
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
