// Vroadgen generates the synthetic evaluation datasets (Table 1 of the
// paper, scaled — see internal/datasets) and writes them into a VSS store, either
// as a single stream or as an overlapping camera pair for joint
// compression experiments.
//
// Examples:
//
//	vroadgen -store /tmp/vss -dataset VisualRoad-1K-30%
//	vroadgen -store /tmp/vss -dataset Waymo -pair
//	vroadgen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datasets"
	"repro/vss"
)

func main() {
	store := flag.String("store", "", "store directory")
	name := flag.String("dataset", "", "dataset name (see -list)")
	pair := flag.Bool("pair", false, "write both overlapping camera streams")
	frames := flag.Int("frames", 0, "cap generated frames (0 = dataset default)")
	list := flag.Bool("list", false, "list datasets")
	flag.Parse()

	if *list {
		fmt.Printf("%-22s %-12s %8s %6s %8s\n", "Name", "Resolution", "Frames", "FPS", "Overlap")
		for _, d := range datasets.All() {
			fmt.Printf("%-22s %dx%-7d %8d %6d %7.0f%%\n", d.Name, d.Width, d.Height, d.Frames, d.FPS, d.Overlap*100)
		}
		return
	}
	if *store == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "usage: vroadgen -store DIR -dataset NAME [-pair] [-frames N] | -list")
		os.Exit(2)
	}
	d, err := datasets.ByName(*name)
	if err != nil {
		fatal(err)
	}
	sys, err := vss.Open(*store, vss.Options{})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()

	write := func(video string, fr []*vss.Frame) {
		if err := sys.Create(video, 0); err != nil && err != vss.ErrExists {
			fatal(err)
		}
		if err := sys.Write(video, vss.WriteSpec{FPS: d.FPS, Codec: vss.H264, Quality: 85}, fr); err != nil {
			fatal(err)
		}
		n, _ := sys.TotalBytes(video)
		fmt.Printf("wrote %s: %d frames, %d bytes\n", video, len(fr), n)
	}

	if *pair {
		left, right := d.GeneratePair(*frames)
		write(d.Name+"-left", left)
		write(d.Name+"-right", right)
		return
	}
	write(d.Name, d.Generate(*frames))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vroadgen:", err)
	os.Exit(1)
}
