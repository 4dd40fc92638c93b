// Command frangick is the offline metadata consistency checker (the
// fsck analog the paper lists as future work in §4). Since the whole
// reproduction runs on a simulated cluster, frangick demonstrates the
// checker by building a cluster, populating a file system, then
// verifying it — and, with -corrupt, injecting damage first to show
// the detector firing.
//
// In library use, call frangipani.Check against a quiesced or
// snapshotted virtual disk.
package main

import (
	"flag"
	"fmt"
	"os"

	"frangipani"
)

func main() {
	corrupt := flag.Bool("corrupt", false, "inject metadata damage before checking")
	flag.Parse()

	cluster, err := frangipani.NewCluster(frangipani.DefaultClusterConfig())
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.AddServer("ws1")
	if err != nil {
		fatal(err)
	}
	// Populate a small tree.
	must(fs.Mkdir("/src"))
	must(fs.Mkdir("/src/pkg"))
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/src/pkg/file%d.go", i)
		must(fs.Create(path))
		h, err := fs.Open(path)
		if err != nil {
			fatal(err)
		}
		if _, err := h.WriteAt([]byte("package pkg\n"), 0); err != nil {
			fatal(err)
		}
	}
	must(fs.Symlink("/src/pkg/file0.go", "/link"))
	must(fs.Sync())

	if *corrupt {
		// Clobber a random inode's nlink behind the file system's back.
		info, err := fs.Stat("/src/pkg/file2.go")
		if err != nil {
			fatal(err)
		}
		pc := cluster.Client("corruptor")
		lay := cluster.Layout()
		sec := make([]byte, 512)
		must(pc.Read(nil, "fs0", lay.InodeAddr(info.Inum), sec))
		sec[2] = 77 // nlink
		must(pc.Write(nil, "fs0", lay.InodeAddr(info.Inum), sec))
		fmt.Println("injected: inode nlink corrupted for /src/pkg/file2.go")
	}

	rep, err := cluster.Fsck()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checked: %d inodes (%d dirs, %d files, %d symlinks), %d blocks\n",
		rep.Inodes, rep.Dirs, rep.Files, rep.Symlinks, rep.Blocks)
	if rep.OK() {
		fmt.Println("clean: no inconsistencies found")
		return
	}
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM [%s] %s\n", p.Kind, p.Msg)
	}
	os.Exit(1)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "frangick:", err)
	os.Exit(1)
}
