//! An in-process `CheckpointStorage` for the fleet's tenant pages.
//!
//! Page-outs happen inside fleet rounds, so on a disk their fsyncs would
//! make round latency measure the disk instead of the snapshot codec. The
//! page store reaches files only through `CheckpointStorage`, so every call
//! it makes still happens; only the bytes stay in this process, counted as
//! they are written. (Checkpoints stay on the program's own `OsStorage`:
//! the checkpoint store also checks the real file system for existing
//! generations, so it cannot run on another back-end.)

use robustscaler_online::CheckpointStorage;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Error, ErrorKind, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Tree {
    files: BTreeMap<PathBuf, Arc<Vec<u8>>>,
    dirs: BTreeSet<PathBuf>,
}

#[derive(Debug, Default)]
pub struct MemStorage {
    tree: Mutex<Tree>,
    written: AtomicU64,
}

fn missing(path: &Path) -> Error {
    Error::new(ErrorKind::NotFound, format!("{} not found", path.display()))
}

impl MemStorage {
    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn tree(&self) -> std::sync::MutexGuard<'_, Tree> {
        self.tree.lock().expect("storage lock poisoned")
    }
}

impl CheckpointStorage for MemStorage {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut tree = self.tree();
        for dir in path.ancestors() {
            if !dir.as_os_str().is_empty() {
                tree.dirs.insert(dir.to_path_buf());
            }
        }
        Ok(())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let mut tree = self.tree();
        let parent = path.parent().unwrap_or(Path::new(""));
        if !parent.as_os_str().is_empty() && !tree.dirs.contains(parent) {
            return Err(missing(parent));
        }
        tree.files
            .insert(path.to_path_buf(), Arc::new(bytes.to_vec()));
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut tree = self.tree();
        let bytes = tree.files.remove(from).ok_or_else(|| missing(from))?;
        tree.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> Result<()> {
        let mut tree = self.tree();
        let bytes = Arc::clone(tree.files.get(src).ok_or_else(|| missing(src))?);
        tree.files.insert(dst.to_path_buf(), bytes);
        Ok(())
    }

    fn copy(&self, src: &Path, dst: &Path) -> Result<()> {
        let mut tree = self.tree();
        let bytes = tree.files.get(src).ok_or_else(|| missing(src))?.to_vec();
        tree.files.insert(dst.to_path_buf(), Arc::new(bytes));
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        let mut tree = self.tree();
        if !tree.dirs.contains(path) {
            return Err(missing(path));
        }
        tree.files.retain(|p, _| !p.starts_with(path));
        tree.dirs.retain(|p| !p.starts_with(path));
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        if self.tree().dirs.contains(path) {
            Ok(())
        } else {
            Err(missing(path))
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let tree = self.tree();
        Ok(tree.files.get(path).ok_or_else(|| missing(path))?.to_vec())
    }

    fn read_dir_names(&self, path: &Path) -> Result<Vec<String>> {
        let tree = self.tree();
        if !tree.dirs.contains(path) {
            return Err(missing(path));
        }
        let child = |p: &PathBuf| {
            (p.parent() == Some(path))
                .then(|| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
                .flatten()
        };
        let mut names: Vec<String> = tree.files.keys().filter_map(child).collect();
        names.extend(tree.dirs.iter().filter_map(child));
        Ok(names)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        let tree = self.tree();
        Ok(tree.files.get(path).ok_or_else(|| missing(path))?.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_directory_tree() {
        let s = MemStorage::default();
        let dir = Path::new("/ckpt/gen-1");
        assert!(s.write(&dir.join("a"), b"x").is_err(), "parent must exist");
        s.create_dir_all(dir).unwrap();
        s.write(&dir.join("a.tmp"), b"hello").unwrap();
        s.rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        s.hard_link(&dir.join("a"), &dir.join("b")).unwrap();
        assert_eq!(s.read(&dir.join("b")).unwrap(), b"hello");
        assert_eq!(s.file_size(&dir.join("a")).unwrap(), 5);
        let mut names = s.read_dir_names(Path::new("/ckpt")).unwrap();
        names.sort();
        assert_eq!(names, vec!["gen-1".to_string()]);
        s.remove_dir_all(dir).unwrap();
        assert!(s.read(&dir.join("a")).is_err());
        assert!(s.sync_dir(dir).is_err());
        assert_eq!(s.written(), 5);
    }
}
