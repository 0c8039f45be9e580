package migrate

import (
	"strings"
	"testing"

	"repro/internal/hw"
)

// checkDecoded fails unless img meets DecodeImage's rules: an ordered
// partition, and every page one full frame inside it.
func checkDecoded(t *testing.T, img *DomainImage) {
	t.Helper()
	if img.Lo > img.Hi {
		t.Fatalf("decoded inverted partition [%d, %d)", img.Lo, img.Hi)
	}
	for pfn, data := range img.Pages {
		if pfn < img.Lo || pfn >= img.Hi || len(data) != hw.PageSize {
			t.Fatalf("decoded page %d (%d bytes) against partition [%d, %d)",
				pfn, len(data), img.Lo, img.Hi)
		}
	}
}

func TestDecodeImageRejectsUnsafeImages(t *testing.T) {
	page := func(n int) []byte { return make([]byte, n) }
	for _, tc := range []struct {
		name string
		img  DomainImage
		want string // "" accepts
	}{
		{"valid", DomainImage{Lo: 10, Hi: 20,
			Pages: map[hw.PFN][]byte{10: page(hw.PageSize), 19: page(hw.PageSize)}}, ""},
		{"empty partition", DomainImage{Lo: 10, Hi: 10}, ""},
		{"inverted partition", DomainImage{Lo: 20, Hi: 10}, "inverted"},
		{"page below Lo", DomainImage{Lo: 10, Hi: 20,
			Pages: map[hw.PFN][]byte{9: page(hw.PageSize)}}, "outside partition"},
		{"page at Hi", DomainImage{Lo: 10, Hi: 20,
			Pages: map[hw.PFN][]byte{20: page(hw.PageSize)}}, "outside partition"},
		{"short page", DomainImage{Lo: 10, Hi: 20,
			Pages: map[hw.PFN][]byte{12: page(hw.PageSize - 1)}}, "holds 4095 bytes"},
		{"long page", DomainImage{Lo: 10, Hi: 20,
			Pages: map[hw.PFN][]byte{12: page(hw.PageSize + 1)}}, "holds 4097 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.img.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			img, err := DecodeImage(b)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected a valid image: %v", err)
			case tc.want == "":
				checkDecoded(t, img)
			case err == nil || !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeImage: any input either fails to decode or decodes to an
// image Restore can lay down inside its partition, and never panics.
func FuzzDecodeImage(f *testing.F) {
	img, b := encodedCheckpoint(f)
	f.Add(b)
	// The same image cut to its lowest page, and to none: small seeds
	// keep mutation and minimisation fast.
	lo := img.Hi
	for pfn := range img.Pages {
		lo = min(lo, pfn)
	}
	for _, pages := range []map[hw.PFN][]byte{{lo: img.Pages[lo]}, nil} {
		img.Pages = pages
		b, err := img.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if img, err := DecodeImage(b); err == nil {
			checkDecoded(t, img)
		}
	})
}
