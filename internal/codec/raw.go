package codec

import (
	"fmt"

	"repro/internal/frame"
)

// rawCodec stores frames losslessly in their original pixel format.
// Raw GOPs have no inter-frame dependencies: every frame is independently
// decodable, so all frames are typed IFrame and look-back cost is zero.
type rawCodec struct{}

func init() { Register(rawCodec{}) }

func (rawCodec) Name() ID { return Raw }

func (rawCodec) Lossless(quality int) bool { return true }

func (rawCodec) EncodeGOP(e *Encoder, frames []*frame.Frame, quality int) ([]byte, Stats, error) {
	f0 := frames[0]
	types := make([]FrameType, len(frames))
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		types[i] = IFrame
		payloads[i] = f.Data
	}
	data := writeContainer(Raw, false, f0.Format, 100, f0.Width, f0.Height, types, payloads)
	st := Stats{Bytes: len(data), IFrames: len(frames)}
	st.BitsPerPixel = float64(len(data)) * 8 / float64(f0.Width*f0.Height*len(frames))
	return data, st, nil
}

func (rawCodec) DecodeRange(data []byte, hd Header, from, to int) ([]*frame.Frame, error) {
	payloads, err := framePayloads(data, hd)
	if err != nil {
		return nil, err
	}
	want := hd.PixFmt.Size(hd.Width, hd.Height)
	out := make([]*frame.Frame, 0, to-from)
	for i := from; i < to; i++ {
		if len(payloads[i]) != want {
			return nil, fmt.Errorf("codec: raw frame %d payload %d bytes, want %d", i, len(payloads[i]), want)
		}
		f := &frame.Frame{Width: hd.Width, Height: hd.Height, Format: hd.PixFmt, Data: make([]byte, want)}
		copy(f.Data, payloads[i])
		out = append(out, f)
	}
	return out, nil
}
