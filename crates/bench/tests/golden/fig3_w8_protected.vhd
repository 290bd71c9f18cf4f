-- refined system fig3 (bus B)
type HandShakeBus is record
    START : bit ;
    DONE : bit ;
    ID : bit_vector(1 downto 0) ;
    DATA : bit_vector(7 downto 0) ;
end record ;
signal B : HandShakeBus ;

-- channel id assignment
--   CH0 = "00"
--   CH1 = "01"
--   CH2 = "10"
--   CH3 = "11"
-- system fig3

signal B_START : bit ;
signal B_DONE : bit ;
signal B_ID : bit_vector(1 downto 0) ;
signal B_DATA : bit_vector(7 downto 0) ;
signal B_ERR : bit := '1' ;
signal B_REQ_P : bit ;
signal B_GNT_P : bit ;
signal B_REQ_Q : bit ;
signal B_GNT_Q : bit ;
signal B_STAT_CH0 : bit ;
signal B_STAT_CH1 : bit ;
signal B_STAT_CH2 : bit ;
signal B_STAT_CH3 : bit ;

procedure Send_CH0(txdata : in bit_vector(15 downto 0)) is
    variable msg : bit_vector(15 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable nak : bit ;
    variable sent : bit ;
    variable mretry : integer<16> ;
    variable ok : bit ;
    variable retry : integer<16> ;
begin
    B_REQ_P <= '1' ;
    wait until (B_GNT_P = '1') ;
    msg := resize(txdata, 16) ;
    sent := '0' ;
    mretry := 0 ;
    while ((sent = '0') and (mretry <= 3)) loop
        B_ID <= "00" ;
        acc := "00000010" ;
        B_DATA <= resize(msg(7 downto 0), 8) ;
        acc := (acc + (resize(msg(7 downto 0), 8) * "00000001")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH0 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        B_DATA <= resize(msg(15 downto 8), 8) ;
        acc := (acc + (resize(msg(15 downto 8), 8) * "00000010")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH0 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        B_DATA <= acc ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                nak := B_ERR ;
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH0 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        if (nak = '0') then
            sent := '1' ;
        else
            mretry := (mretry + 1) ;
        end if ;
    end loop ;
    if (sent = '0') then
        B_STAT_CH0 <= '1' ;
        B_REQ_P <= '0' ;
        wait until (B_GNT_P = '0') ;
        return ;
    end if ;
    B_REQ_P <= '0' ;
    wait until (B_GNT_P = '0') ;
end Send_CH0 ;

procedure Serve_CH0() is
    variable msg : bit_vector(15 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable chk : bit_vector(7 downto 0) ;
    variable good : bit ;
begin
    good := '0' ;
    while (good = '0') loop
        acc := "00000010" ;
        wait until (B_START = '1') ;
        msg(7 downto 0) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000001")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        msg(15 downto 8) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000010")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        chk := B_DATA ;
        if (chk = acc) then
            good := '1' ;
            B_ERR <= '0' ;
        else
            B_ERR <= '1' ;
        end if ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        B_ERR <= '1' ;
    end loop ;
    X := msg ;
end Serve_CH0 ;

procedure Receive_CH1(rxdata : out bit_vector(15 downto 0)) is
    variable acc : bit_vector(7 downto 0) ;
    variable racc : bit_vector(7 downto 0) ;
    variable chkw : bit_vector(7 downto 0) ;
    variable nak : bit ;
    variable got : bit ;
    variable mretry : integer<16> ;
    variable ok : bit ;
    variable retry : integer<16> ;
begin
    B_REQ_P <= '1' ;
    wait until (B_GNT_P = '1') ;
    got := '0' ;
    mretry := 0 ;
    while ((got = '0') and (mretry <= 3)) loop
        B_ID <= "01" ;
        nak := '0' ;
        if (nak = '0') then
            racc := "00000010" ;
            ok := '0' ;
            retry := 0 ;
            while ((ok = '0') and (retry <= 3)) loop
                B_START <= '1' ;
                wait until (B_DONE = '1') for 16 cycles ;
                if (B_DONE = '1') then
                    rxdata(7 downto 0) := B_DATA(7 downto 0) ;
                    racc := (racc + (resize(B_DATA(7 downto 0), 8) * "00000001")) ;
                    B_START <= '0' ;
                    wait until (B_DONE = '0') for 16 cycles ;
                    if (B_DONE = '0') then
                        ok := '1' ;
                    else
                        retry := (retry + 1) ;
                    end if ;
                else
                    B_START <= '0' ;
                    retry := (retry + 1) ;
                end if ;
            end loop ;
            if (ok = '0') then
                B_STAT_CH1 <= '1' ;
                B_REQ_P <= '0' ;
                wait until (B_GNT_P = '0') ;
                return ;
            end if ;
            ok := '0' ;
            retry := 0 ;
            while ((ok = '0') and (retry <= 3)) loop
                B_START <= '1' ;
                wait until (B_DONE = '1') for 16 cycles ;
                if (B_DONE = '1') then
                    rxdata(15 downto 8) := B_DATA(7 downto 0) ;
                    racc := (racc + (resize(B_DATA(7 downto 0), 8) * "00000010")) ;
                    B_START <= '0' ;
                    wait until (B_DONE = '0') for 16 cycles ;
                    if (B_DONE = '0') then
                        ok := '1' ;
                    else
                        retry := (retry + 1) ;
                    end if ;
                else
                    B_START <= '0' ;
                    retry := (retry + 1) ;
                end if ;
            end loop ;
            if (ok = '0') then
                B_STAT_CH1 <= '1' ;
                B_REQ_P <= '0' ;
                wait until (B_GNT_P = '0') ;
                return ;
            end if ;
            ok := '0' ;
            retry := 0 ;
            while ((ok = '0') and (retry <= 3)) loop
                B_START <= '1' ;
                wait until (B_DONE = '1') for 16 cycles ;
                if (B_DONE = '1') then
                    chkw := B_DATA ;
                    B_START <= '0' ;
                    wait until (B_DONE = '0') for 16 cycles ;
                    if (B_DONE = '0') then
                        ok := '1' ;
                    else
                        retry := (retry + 1) ;
                    end if ;
                else
                    B_START <= '0' ;
                    retry := (retry + 1) ;
                end if ;
            end loop ;
            if (ok = '0') then
                B_STAT_CH1 <= '1' ;
                B_REQ_P <= '0' ;
                wait until (B_GNT_P = '0') ;
                return ;
            end if ;
            if (chkw = racc) then
                got := '1' ;
            else
                mretry := (mretry + 1) ;
            end if ;
        else
            mretry := (mretry + 1) ;
        end if ;
    end loop ;
    if (got = '0') then
        B_STAT_CH1 <= '1' ;
        B_REQ_P <= '0' ;
        wait until (B_GNT_P = '0') ;
        return ;
    end if ;
    B_REQ_P <= '0' ;
    wait until (B_GNT_P = '0') ;
end Receive_CH1 ;

procedure Serve_CH1() is
    variable data : bit_vector(15 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
begin
    data := X ;
    acc := "00000010" ;
    wait until (B_START = '1') ;
    B_DATA <= resize(data(7 downto 0), 8) ;
    acc := (acc + (resize(data(7 downto 0), 8) * "00000001")) ;
    B_DONE <= '1' ;
    wait until (B_START = '0') ;
    B_DONE <= '0' ;
    wait until (B_START = '1') ;
    B_DATA <= resize(data(15 downto 8), 8) ;
    acc := (acc + (resize(data(15 downto 8), 8) * "00000010")) ;
    B_DONE <= '1' ;
    wait until (B_START = '0') ;
    B_DONE <= '0' ;
    wait until (B_START = '1') ;
    B_DATA <= acc ;
    B_DONE <= '1' ;
    wait until (B_START = '0') ;
    B_DONE <= '0' ;
end Serve_CH1 ;

procedure Send_CH2(addr : in bit_vector(5 downto 0); txdata : in bit_vector(15 downto 0)) is
    variable msg : bit_vector(21 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable nak : bit ;
    variable sent : bit ;
    variable mretry : integer<16> ;
    variable ok : bit ;
    variable retry : integer<16> ;
begin
    B_REQ_P <= '1' ;
    wait until (B_GNT_P = '1') ;
    msg := (addr & txdata) ;
    sent := '0' ;
    mretry := 0 ;
    while ((sent = '0') and (mretry <= 3)) loop
        B_ID <= "10" ;
        acc := "00000011" ;
        B_DATA <= resize(msg(7 downto 0), 8) ;
        acc := (acc + (resize(msg(7 downto 0), 8) * "00000001")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH2 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        B_DATA <= resize(msg(15 downto 8), 8) ;
        acc := (acc + (resize(msg(15 downto 8), 8) * "00000010")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH2 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        B_DATA <= resize(msg(21 downto 16), 8) ;
        acc := (acc + (resize(msg(21 downto 16), 8) * "00000011")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH2 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        B_DATA <= acc ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                nak := B_ERR ;
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH2 <= '1' ;
            B_REQ_P <= '0' ;
            wait until (B_GNT_P = '0') ;
            return ;
        end if ;
        if (nak = '0') then
            sent := '1' ;
        else
            mretry := (mretry + 1) ;
        end if ;
    end loop ;
    if (sent = '0') then
        B_STAT_CH2 <= '1' ;
        B_REQ_P <= '0' ;
        wait until (B_GNT_P = '0') ;
        return ;
    end if ;
    B_REQ_P <= '0' ;
    wait until (B_GNT_P = '0') ;
end Send_CH2 ;

procedure Serve_CH2() is
    variable msg : bit_vector(21 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable chk : bit_vector(7 downto 0) ;
    variable good : bit ;
begin
    good := '0' ;
    while (good = '0') loop
        acc := "00000011" ;
        wait until (B_START = '1') ;
        msg(7 downto 0) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000001")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        msg(15 downto 8) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000010")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        msg(21 downto 16) := B_DATA(5 downto 0) ;
        acc := (acc + (resize(B_DATA(5 downto 0), 8) * "00000011")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        chk := B_DATA ;
        if ((chk = acc) and (msg(5 downto 0) < 64)) then
            good := '1' ;
            B_ERR <= '0' ;
        else
            B_ERR <= '1' ;
        end if ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        B_ERR <= '1' ;
    end loop ;
    MEM(msg(5 downto 0)) := msg(21 downto 6) ;
end Serve_CH2 ;

procedure Send_CH3(addr : in bit_vector(5 downto 0); txdata : in bit_vector(15 downto 0)) is
    variable msg : bit_vector(21 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable nak : bit ;
    variable sent : bit ;
    variable mretry : integer<16> ;
    variable ok : bit ;
    variable retry : integer<16> ;
begin
    B_REQ_Q <= '1' ;
    wait until (B_GNT_Q = '1') ;
    msg := (addr & txdata) ;
    sent := '0' ;
    mretry := 0 ;
    while ((sent = '0') and (mretry <= 3)) loop
        B_ID <= "11" ;
        acc := "00000011" ;
        B_DATA <= resize(msg(7 downto 0), 8) ;
        acc := (acc + (resize(msg(7 downto 0), 8) * "00000001")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH3 <= '1' ;
            B_REQ_Q <= '0' ;
            wait until (B_GNT_Q = '0') ;
            return ;
        end if ;
        B_DATA <= resize(msg(15 downto 8), 8) ;
        acc := (acc + (resize(msg(15 downto 8), 8) * "00000010")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH3 <= '1' ;
            B_REQ_Q <= '0' ;
            wait until (B_GNT_Q = '0') ;
            return ;
        end if ;
        B_DATA <= resize(msg(21 downto 16), 8) ;
        acc := (acc + (resize(msg(21 downto 16), 8) * "00000011")) ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH3 <= '1' ;
            B_REQ_Q <= '0' ;
            wait until (B_GNT_Q = '0') ;
            return ;
        end if ;
        B_DATA <= acc ;
        ok := '0' ;
        retry := 0 ;
        while ((ok = '0') and (retry <= 3)) loop
            B_START <= '1' ;
            wait until (B_DONE = '1') for 16 cycles ;
            if (B_DONE = '1') then
                nak := B_ERR ;
                B_START <= '0' ;
                wait until (B_DONE = '0') for 16 cycles ;
                if (B_DONE = '0') then
                    ok := '1' ;
                else
                    retry := (retry + 1) ;
                end if ;
            else
                B_START <= '0' ;
                retry := (retry + 1) ;
            end if ;
        end loop ;
        if (ok = '0') then
            B_STAT_CH3 <= '1' ;
            B_REQ_Q <= '0' ;
            wait until (B_GNT_Q = '0') ;
            return ;
        end if ;
        if (nak = '0') then
            sent := '1' ;
        else
            mretry := (mretry + 1) ;
        end if ;
    end loop ;
    if (sent = '0') then
        B_STAT_CH3 <= '1' ;
        B_REQ_Q <= '0' ;
        wait until (B_GNT_Q = '0') ;
        return ;
    end if ;
    B_REQ_Q <= '0' ;
    wait until (B_GNT_Q = '0') ;
end Send_CH3 ;

procedure Serve_CH3() is
    variable msg : bit_vector(21 downto 0) ;
    variable acc : bit_vector(7 downto 0) ;
    variable chk : bit_vector(7 downto 0) ;
    variable good : bit ;
begin
    good := '0' ;
    while (good = '0') loop
        acc := "00000011" ;
        wait until (B_START = '1') ;
        msg(7 downto 0) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000001")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        msg(15 downto 8) := B_DATA(7 downto 0) ;
        acc := (acc + (resize(B_DATA(7 downto 0), 8) * "00000010")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        msg(21 downto 16) := B_DATA(5 downto 0) ;
        acc := (acc + (resize(B_DATA(5 downto 0), 8) * "00000011")) ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        wait until (B_START = '1') ;
        chk := B_DATA ;
        if ((chk = acc) and (msg(5 downto 0) < 64)) then
            good := '1' ;
            B_ERR <= '0' ;
        else
            B_ERR <= '1' ;
        end if ;
        B_DONE <= '1' ;
        wait until (B_START = '0') ;
        B_DONE <= '0' ;
        B_ERR <= '1' ;
    end loop ;
    MEM(msg(5 downto 0)) := msg(21 downto 6) ;
end Serve_CH3 ;

-- module component1

process P
    variable AD : integer<16> ;
    variable Xtemp : bit_vector(15 downto 0) ;
begin
    Send_CH0(32) ;
    Receive_CH1(Xtemp) ;
    assert (Xtemp = 32) report "readback of X" ;
    Send_CH2(AD, (Xtemp + 7)) ;
end process ;

process Q
    variable COUNT : integer<16> ;
begin
    Send_CH3(60, COUNT) ;
end process ;

process B_arbiter
    variable B_arb_last : integer<8> ;
begin
    wait until ((B_REQ_P = '1') or (B_REQ_Q = '1')) ;
    if (B_arb_last = 0) then
        if (B_REQ_Q = '1') then
            B_GNT_Q <= '1' ;
            wait until (B_REQ_Q = '0') ;
            B_GNT_Q <= '0' ;
            B_arb_last := 1 ;
        else
            if (B_REQ_P = '1') then
                B_GNT_P <= '1' ;
                wait until (B_REQ_P = '0') ;
                B_GNT_P <= '0' ;
                B_arb_last := 0 ;
            end if ;
        end if ;
    else
        if (B_REQ_P = '1') then
            B_GNT_P <= '1' ;
            wait until (B_REQ_P = '0') ;
            B_GNT_P <= '0' ;
            B_arb_last := 0 ;
        else
            if (B_REQ_Q = '1') then
                B_GNT_Q <= '1' ;
                wait until (B_REQ_Q = '0') ;
                B_GNT_Q <= '0' ;
                B_arb_last := 1 ;
            end if ;
        end if ;
    end if ;
    -- process repeats
end process ;

-- module component2

process component2_store
    variable X : bit_vector(15 downto 0) ;
    variable MEM : array(0 to 63) of bit_vector(15 downto 0) ;
begin
end process ;

process Xproc
begin
    wait until (B_START = '1') ;
    if (B_ID = "00") then
        Serve_CH0() ;
    else
        if (B_ID = "01") then
            Serve_CH1() ;
        else
            wait until (B_START = '0') ;
        end if ;
    end if ;
    -- process repeats
end process ;

process MEMproc
begin
    wait until (B_START = '1') ;
    if (B_ID = "10") then
        Serve_CH2() ;
    else
        if (B_ID = "11") then
            Serve_CH3() ;
        else
            wait until (B_START = '0') ;
        end if ;
    end if ;
    -- process repeats
end process ;
