package bench

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/datasets"
)

// Table1 regenerates the paper's Table 1: the evaluation datasets with
// their resolutions, frame counts, and compressed sizes. Resolutions and
// frame counts are the scaled working values defined in internal/datasets; the
// compressed size is measured by actually encoding each dataset with the
// h264 profile, mirroring how the paper reports on-disk size.
func Table1(w io.Writer) error {
	header(w, "Table 1: Datasets used to evaluate VSS (scaled)")
	fmt.Fprintf(w, "%-22s %-10s %-12s %10s %14s\n", "Dataset", "Class", "Resolution", "#Frames", "Compressed")
	for _, d := range datasets.All() {
		// Cap generation so the 4K-class dataset stays fast; size is
		// extrapolated linearly from the measured prefix (GOP sizes are
		// uniform for stationary-camera content).
		sample := datasetFrames(d, 96)
		frames := d.Generate(sample)
		var bytes int64
		for i := 0; i < len(frames); i += 24 {
			j := i + 24
			if j > len(frames) {
				j = len(frames)
			}
			data, _, err := codec.EncodeGOP(frames[i:j], codec.H264, 85)
			if err != nil {
				return err
			}
			bytes += int64(len(data))
		}
		total := bytes * int64(d.Frames) / int64(sample)
		fmt.Fprintf(w, "%-22s %-10s %-12s %10d %11.2f MB\n",
			d.Name, d.Class, fmt.Sprintf("%dx%d", d.Width, d.Height), d.Frames, float64(total)/(1<<20))
	}
	return nil
}
