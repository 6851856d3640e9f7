//! The one atomic file writer every persisted artifact goes through:
//! sweep-cache entries, corpus records, `corpus.json` and saved session
//! records.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` via a temp file in the same directory plus a
/// `rename`, so a concurrent reader, or a later run after this process
/// crashed, never sees a half-written file: it sees the old contents, or
/// none, or the new contents in full.
///
/// The temp file is not `fsync`ed, so this does not survive an OS crash
/// or power loss: the rename may reach disk before the data, leaving a
/// short file under the final name. Every reader re-validates what it
/// loads (cache key and line count, ECASR checksum), so such a file is
/// detected as corrupt, never trusted.
///
/// The temp name embeds the process id and a process-wide counter: two
/// writers racing on the same path (same process, or two processes
/// sharing a directory) each write their own temp file, and the final
/// `rename` is atomic, so the published file is always one writer's
/// complete bytes — never an interleaving. On failure the temp file is
/// removed.
///
/// # Errors
///
/// Returns the I/O error of the write or the rename.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_contents_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ecas-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.json"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        let dir = std::env::temp_dir().join(format!("ecas-atomic-dir-{}", std::process::id()));
        let target = dir.join("taken");
        fs::create_dir_all(target.join("nonempty")).unwrap();
        // Renaming a file over a non-empty directory fails after the
        // temp file was written.
        assert!(atomic_write(&target, b"x").is_err());
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["taken"]);
        fs::remove_dir_all(&dir).ok();
    }
}
